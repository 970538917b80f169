#!/usr/bin/env python3
"""Benchmark for geodiscord, run from the repository root:

    python3 bench/run.py --workload {qubits,cli,qudit} --seed N --seconds S --trace {0,1}

It imports the library from ``src/`` of the same checkout and exits with
code 2, printing no result, when that source is missing.  Each workload is
a closed loop: one caller in this process sends the next item only when the
previous one has finished, with the BLAS thread count pinned to at most
two.  Every input comes from the workload's own NumPy generator seeded by
``--seed``; the program receives only matrices, files and argv.

Set-up (importing geodiscord, then one untimed warm-up pass) is repeated
five times and its median reported.  The loop then measures whole cycles
of items until the time spent inside the library reaches ``--seconds``.
Making inputs and checking outputs against plain-NumPy references is not
timed.  Throughput is the median over the run's cycles of completed items
per second of library time.  With ``--trace 1`` every cycle runs twice on
the same inputs, once untraced and once with spans around the calls into
each library module; the spans give per-layer self times and the pair
gives the tracing overhead.

Detail lines (JSON) come first; the last line of standard output is the
result object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from collections import Counter, defaultdict
from pathlib import Path

PROCESS_START = time.perf_counter()
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5
HARD_STOP_S = 165.0  # no new cycle starts after this, so a run ends within 180 s
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = {
    "items_per_s": "1/s",
    "item_p50_ms": "ms",
    "item_tail_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# per-item self time of each span, in ms per item; the sum over spans plus
# trace.uncovered_ms is the mean traced item time
SELF_TIME_SPANS = (
    "tensor_ops.validate",
    "bloch.coefficient_tensor",
    "bloch.decompose",
    "discord.closed_form",
    "total.chain",
    "discord.upper_bound",
    "formats.load_state",
    "formats.load_pauli_table",
    "formats.ingest_pauli_table",
    "formats.save_state",
    "oracle.cross_check",
    "sweep.sweep_family",
    "sweep.write_sweep_csv",
    "states.named_state",
    "cli.discord",
    "cli.total",
    "cli.ingest",
    "cli.sweep",
    "cli.gen",
)
QUDIT_DIMS = ("3x3", "2x3", "4x2", "2x2x2")
# per-call medians, (metric, span, item label, earlier figure in ms): the
# re-anchor figures in ROADMAP.md, and 349 ms for the eigvalsh inside
# validation at N = 10, timed by hand at the same re-anchor
RECONCILE = (
    ("qubits.n10.validate_ms", "tensor_ops.validate", "n10", 349.0),
    ("qubits.n10.coefficient_tensor_ms", "bloch.coefficient_tensor", "n10", 106.0),
    ("qubits.n10.decompose_ms", "bloch.decompose", "n10", 16.0),
    ("qubits.n10.closed_form_ms", "discord.closed_form", "n10", 17.0),
    ("qubits.n10.chain_ms", "total.chain", "n10", 456.0),
    ("qubits.n8.chain_ms", "total.chain", "n8", 60.0),
    ("oracle.n3.cross_check_ms", "oracle.cross_check", "oracle", 300.0),
)
ORACLE_DEFAULT_GRID = "181,360,3"  # the grid the re-anchor figure was timed on

PER_LAYER = (
    [(f"{span}_ms", "ms/item") for span in SELF_TIME_SPANS]
    + [(f"discord.upper_bound_ms.{dims}", "ms/call") for dims in QUDIT_DIMS]
    + [(name, "ms/call") for name, _, _, _ in RECONCILE]
    + [
        ("formats.bytes_parsed", "B/item"),
        ("cli.exit_code_count.0", "count"),
        ("cli.exit_code_count.2", "count"),
        ("cli.exit_code_count.3", "count"),
        ("cli.escaped_count", "count"),
        ("failed_ratio", "ratio"),
        ("discord.bracket_gap", "hs2"),
        ("discord.qubit_party_misses", "count"),
        ("trace.item_ms", "ms"),
        ("trace.uncovered_ms", "ms/item"),
        ("trace.items_per_s", "1/s"),
        ("trace.untraced_items_per_s", "1/s"),
        ("trace.overhead_pct", "%"),
    ]
)

# which end-to-end metric each layer should move, on which workload
MOVES = {
    "tensor_ops.validate": "items_per_s on qubits and cli",
    "bloch.coefficient_tensor": "items_per_s, item_tail_ms on qubits; not cli",
    "bloch.decompose": "items_per_s, item_tail_ms on qubits; not cli",
    "discord.closed_form": "items_per_s, item_tail_ms on qubits; not cli",
    "total.chain": "items_per_s, item_tail_ms on qubits; not cli",
    "discord.upper_bound": "items_per_s on qudit; bracket_gap must not rise",
}


def grid_points(grid):
    """Axes one oracle run scores: the coarse grid plus 33 x 33 per refinement round."""
    theta, phi, rounds = (int(x) for x in grid.split(","))
    return theta * phi + rounds * 33 * 33


def moves(span):
    if span.startswith("discord.upper_bound"):
        return MOVES["discord.upper_bound"]
    return MOVES.get(span, "item_p50_ms on cli")


def pin_blas_threads():
    threads = min(2, len(os.sched_getaffinity(0)))
    for var in BLAS_VARS:
        os.environ[var] = str(threads)
    return threads


def read_caches():
    caches = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    try:
        for index in sorted(base.glob("index*")):
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            if kind in ("Unified", "Data"):
                caches[f"L{level}"] = (index / "size").read_text().strip()
    except OSError:
        pass
    return caches


def context(threads, np):
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cores": os.cpu_count(),
        "cores_available": len(os.sched_getaffinity(0)),
        "blas_threads": threads,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "python": platform.python_version(),
        "numpy": np.__version__,
        "caches_per_core_read_from_sys": read_caches(),
        "working_set_bytes_computed_not_measured": {
            f"n{n}": {"rho": 16 * 4**n, "C": 8 * 4**n} for n in (6, 8, 10)
        },
        "loop": "closed, one caller, one process",
    }


def fresh_import(with_cli):
    for name in [m for m in sys.modules if m == "geodiscord" or m.startswith("geodiscord.")]:
        del sys.modules[name]
    names = ["geodiscord", "geodiscord.bloch"] + (["geodiscord.cli"] if with_cli else [])
    lib = {name: importlib.import_module(name) for name in names}
    origin = Path(lib["geodiscord"].__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise ImportError(f"geodiscord was imported from {origin}, not from {SRC}")
    return lib


def set_up(workload):
    """Import plus one warm-up pass, SETUP_REPEATS times; (median s, all s, lib)."""
    times = []
    for _ in range(SETUP_REPEATS):
        items = workload.warmup_items()
        start = time.perf_counter()
        lib = fresh_import(workload.name == "cli")
        api = workload.api(lib)
        for item in items:
            workload.call(api, item)
        times.append(time.perf_counter() - start)
    return statistics.median(times), times, lib


def tail(latencies):
    """Latency at the highest percentile with at least ten samples beyond it.

    With ten samples or fewer no percentile has ten beyond, so the maximum
    is reported; the percentile and sample count go with the value.
    """
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0, n
    return ordered[n - 11], 100.0 * (n - 10) / n, n


def measure(workload, lib, seconds, tracer):
    """Run whole cycles until the time inside the library reaches ``seconds``."""
    records = []
    busy = 0.0
    cycle = 0
    plain = workload.api(lib)
    traced = workload.api(lib, tracer) if tracer else None
    while True:
        cycle_start = time.perf_counter()
        items = workload.cycle(cycle)
        modes = [False] if tracer is None else [cycle % 2 == 1, cycle % 2 == 0]
        for is_traced in modes:
            binding = workload.rebinding(lib, tracer) if is_traced else contextlib.nullcontext()
            with binding:
                for item in items:
                    item_id = len(records)
                    if tracer:
                        tracer.item = item_id if is_traced else None
                    out, error = None, None
                    start = time.perf_counter()
                    try:
                        out = workload.call(traced if is_traced else plain, item)
                    except Exception as exc:  # an error escaping the library fails the item
                        error = exc
                    latency = time.perf_counter() - start
                    busy += latency
                    record = judge(workload, lib, item, item_id, is_traced, latency, out, error)
                    record["cycle"] = cycle
                    records.append(record)
        cycle += 1
        now = time.perf_counter()
        if busy >= seconds or now + (now - cycle_start) > PROCESS_START + HARD_STOP_S:
            return records, cycle, busy


def judge(workload, lib, item, item_id, is_traced, latency, out, error):
    record = {
        "id": item_id,
        "label": workload.label(item),
        "traced": is_traced,
        "latency": latency,
        "bytes_read": item.get("bytes_read", 0),
        "raised": error is not None,
        "problems": [],
        "extra": {},
    }
    if error is not None:
        record["problems"] = [f"raised {type(error).__name__}: {error}"]
        return record
    try:
        record["problems"], record["extra"] = workload.check(item, out, lib)
    except Exception as exc:  # an unreadable output is a wrong output
        record["problems"] = [f"check raised {type(exc).__name__}: {exc}"]
    return record


def end_to_end_metrics(records, setup_s):
    """items_per_s is the median over cycles of completed items per second."""
    latencies = [r["latency"] for r in records]
    cycles = defaultdict(lambda: [0, 0.0])
    for r in records:
        cycles[r["cycle"]][0] += not r["problems"]
        cycles[r["cycle"]][1] += r["latency"]
    tail_s, tail_pct, n = tail(latencies)
    values = {
        "items_per_s": statistics.median(done / busy for done, busy in cycles.values()),
        "item_p50_ms": statistics.median(latencies) * 1e3,
        "item_tail_ms": tail_s * 1e3,
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    detail = {"tail_percentile": round(tail_pct, 2), "samples": n}
    return values, detail


def per_layer_metrics(workload, records, tracer):
    traced = [r for r in records if r["traced"]]
    plain = [r for r in records if not r["traced"]]
    ids = {r["id"]: r for r in traced}
    n = len(traced)
    spans = [s for s in tracer.self_times() if s[2] in ids]
    self_s = defaultdict(float)
    calls = Counter()
    per_call = defaultdict(list)
    for name, seconds, item in spans:
        self_s[name] += seconds
        calls[name] += 1
        per_call[(name, ids[item]["label"])].append(seconds)
    for dims in QUDIT_DIMS:
        self_s["discord.upper_bound"] += self_s.get(f"discord.upper_bound.{dims}", 0.0)
    values = {f"{span}_ms": self_s.get(span, 0.0) / n * 1e3 for span in SELF_TIME_SPANS}
    for dims in QUDIT_DIMS:
        span = f"discord.upper_bound.{dims}"
        values[f"discord.upper_bound_ms.{dims}"] = self_s.get(span, 0.0) / calls[span] * 1e3 if calls[span] else 0.0
    reconcile = []
    for metric, span, label, roadmap_ms in RECONCILE:
        samples = per_call.get((span, label), [])
        measured = statistics.median(samples) * 1e3 if samples else 0.0
        values[metric] = measured
        if samples:
            reconcile.append({"metric": metric, "roadmap_ms": roadmap_ms, "measured_ms": round(measured, 3),
                              "difference_ms": round(measured - roadmap_ms, 3),
                              "ratio": round(measured / roadmap_ms, 3), "calls": len(samples)})
            if metric.startswith("oracle."):
                # the grids differ, so the comparable figure is time per grid point
                points = {"default": grid_points(ORACLE_DEFAULT_GRID), "bench": grid_points(workload.oracle_grid)}
                roadmap_us = roadmap_ms * 1e3 / points["default"]
                measured_us = measured * 1e3 / points["bench"]
                reconcile.append({"metric": "oracle.n3.us_per_grid_point", "roadmap_us": round(roadmap_us, 3),
                                  "measured_us": round(measured_us, 3), "ratio": round(measured_us / roadmap_us, 3),
                                  "grid_points": points})
    exits = Counter(r["extra"].get("exit") for r in traced)
    traced_item_s = sum(r["latency"] for r in traced) / n
    covered = sum(s[1] for s in spans) / n
    traced_ips = sum(1 for r in traced if not r["problems"]) / sum(r["latency"] for r in traced)
    plain_ips = sum(1 for r in plain if not r["problems"]) / sum(r["latency"] for r in plain)
    gaps = [g for r in traced for g in r["extra"].get("bracket_gaps", [])]
    values.update({
        "formats.bytes_parsed": sum(r["bytes_read"] for r in traced) / n,
        "cli.exit_code_count.0": exits.get(0, 0),
        "cli.exit_code_count.2": exits.get(2, 0),
        "cli.exit_code_count.3": exits.get(3, 0),
        "cli.escaped_count": sum(1 for r in traced if r["raised"]) if workload.name == "cli" else 0,
        "failed_ratio": sum(1 for r in records if r["problems"]) / len(records),
        "discord.bracket_gap": statistics.fmean(gaps) if gaps else 0.0,
        "discord.qubit_party_misses": sum(r["extra"].get("qubit_party_misses", 0) for r in traced),
        "trace.item_ms": traced_item_s * 1e3,
        "trace.uncovered_ms": (traced_item_s - covered) * 1e3,
        "trace.items_per_s": traced_ips,
        "trace.untraced_items_per_s": plain_ips,
        "trace.overhead_pct": 100.0 * (plain_ips - traced_ips) / plain_ips,
    })
    layers = [
        {"span": name, "self_ms_per_item": round(self_s[name] / n * 1e3, 4), "calls": calls[name],
         "moves": moves(name)}
        for name in sorted(calls)
    ]
    detail = {"layers": layers, "traced_items": n,
              "self_time_sum_ms_per_item": round(covered * 1e3, 4),
              "uncovered_ms_per_item": round((traced_item_s - covered) * 1e3, 4),
              "traced_item_ms": round(traced_item_s * 1e3, 4)}
    return values, detail, reconcile


def input_report(records):
    """Attempted and failed items per input label, with the first problem."""
    report = defaultdict(lambda: {"attempted": 0, "failed": 0})
    for r in records:
        entry = report[r["label"]]
        entry["attempted"] += 1
        if r["problems"]:
            entry["failed"] += 1
            entry.setdefault("first_problem", r["problems"][0][:300])
    return dict(sorted(report.items()))


def emit(line):
    print(json.dumps(line), flush=True)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("qubits", "cli", "qudit"))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "geodiscord" / "__init__.py").is_file():
        print(f"error: no geodiscord source under {SRC}", file=sys.stderr)
        return 2
    threads = pin_blas_threads()
    sys.path.insert(0, str(SRC))
    import numpy as np

    from tracer import Tracer
    from workloads import WORKLOADS

    workdir = tempfile.mkdtemp(prefix=".bench-work-", dir=ROOT)
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir)
        try:
            setup_s, setup_runs, lib = set_up(workload)
        except ImportError as exc:
            print(f"error: cannot import geodiscord: {exc}", file=sys.stderr)
            return 2
        tracer = Tracer() if args.trace else None
        wall = time.perf_counter()
        records, cycles, busy = measure(workload, lib, args.seconds, tracer)
        wall = time.perf_counter() - wall
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    emit({"context": context(threads, np)})
    run = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
           "cycles": cycles, "items": len(records), "busy_s": round(busy, 3), "loop_wall_s": round(wall, 3),
           "setup_runs_s": [round(t, 4) for t in setup_runs]}
    if args.trace:
        values, detail, reconcile = per_layer_metrics(workload, records, tracer)
        units = dict(PER_LAYER)
        emit({"run": run, "trace": detail})
        if reconcile:
            emit({"reconcile_with_roadmap": reconcile})
    else:
        values, detail = end_to_end_metrics(records, setup_s)
        units = END_TO_END
        run.update(detail)
        emit({"run": run})
    emit({"inputs": input_report(records)})
    failed = sum(1 for r in records if r["problems"])
    emit({
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    })
    return 0


if __name__ == "__main__":
    sys.exit(main())
