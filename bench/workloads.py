"""The three benchmark workloads: inputs, the timed call, and its check.

Each workload is a closed loop of items made in cycles.  A cycle is a fixed
sequence of cases whose inputs are drawn from the workload's own NumPy
generator, so the same seed always gives the same inputs and a run always
measures whole cycles, which keeps the mix of cases fixed.

``call`` is the timed part.  It reaches the library only through the
functions in the ``api`` dict, which hold traced wrappers in a traced run.
``check`` runs untimed and compares the output with the plain-NumPy
references in ``reference``.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os

import numpy as np

import reference as ref


def _tolerance(c):
    return 1e-9 * ref.norm_sq(c) + 1e-15


def _close(value, expected, tol):
    return abs(float(value) - float(expected)) <= tol


class Qubits:
    """N-qubit states, N in {6, 8, 10}, full-rank and pure.

    One item validates the matrix, decomposes it, takes the closed-form
    discord of every party and the greedy chain in natural order.
    """

    name = "qubits"
    cases = tuple((n, kind) for n in (6, 8, 10) for kind in ("full", "pure"))

    def __init__(self, seed, workdir):
        self.rng = np.random.default_rng([seed, 1])

    def api(self, lib, tracer=None):
        g = lib["geodiscord"]
        fns = {
            "tensor_ops.validate": g.DensityMatrix,
            "bloch.decompose": g.bloch_decompose,
            "discord.closed_form": g.discord_closed_form,
            "total.chain": g.total_quantum_correlations,
        }
        if tracer is None:
            return fns
        return {span: tracer.wrap(span, fn) for span, fn in fns.items()}

    def rebinding(self, lib, tracer):
        # bloch_decompose calls coefficient_tensor through its module global
        return tracer.rebind(lib["geodiscord.bloch"], {"coefficient_tensor": "bloch.coefficient_tensor"})

    def warmup_items(self):
        return [
            {"n": n, "kind": "mixed", "matrix": np.eye(2**n) / 2**n}
            for n in (6, 8, 10)
        ]

    def cycle(self, index):
        items = []
        for n, kind in self.cases:
            rank = 2**n if kind == "full" else 1
            items.append({"n": n, "kind": kind, "matrix": ref.ginibre(self.rng, (2,) * n, rank)})
        return items

    def label(self, item):
        return f"n{item['n']}"

    def call(self, api, item):
        n = item["n"]
        rho = api["tensor_ops.validate"](item["matrix"], (2,) * n)
        dec = api["bloch.decompose"](rho)
        reports = [api["discord.closed_form"](dec, k) for k in range(1, n + 1)]
        return reports, api["total.chain"](dec)

    def check(self, item, out, lib):
        reports, total = out
        c = ref.coefficients(item["matrix"], (2,) * item["n"])
        tol = _tolerance(c)
        problems = []
        for k, report in enumerate(reports, start=1):
            expected = ref.discord_lower_bound(c, k)
            if report.part != k or not _close(report.value, expected, tol):
                problems.append(f"D_{k} = {report.value!r}, reference {expected!r}")
        isometries = [(step.part, step.isometry.matrix) for step in total.steps]
        expected = ref.telescoped_q(c, isometries)
        if not _close(total.q_value, expected, tol):
            problems.append(f"Q = {total.q_value!r}, telescoped {expected!r}")
        return problems, {}


class Qudit:
    """discord_upper_bound on qudit parties, one item per pass over the cases.

    The optimizer's work depends on the state: on freshly drawn Ginibre
    states one call takes from 3 to the cap of 64 sweeps, so a 30 s run,
    which covers about five states per case, measured mostly which states
    it drew.  So the full-rank Ginibre states are drawn once, from the
    constant stream [0, 3], and every item conjugates them by Haar local
    unitaries drawn from the seed on the parties in ``rotated``.  A
    unitary on a party changes the matrix and the coefficient tensor but
    not the objective the optimizer climbs for any other party, so every
    item does the same qudit-party optimizer work on new inputs.  In 2x3
    both parties are measured; the rotated one is the qubit, whose call
    always stops after 3 or 4 sweeps.
    """

    name = "qudit"
    # (dims, measured parties, rotated parties)
    states = (((3, 3), (1,), (2,)), ((2, 3), (1, 2), (1,)), ((4, 2), (1,), (2,)), ((2, 2, 2), (1,), (2, 3)))
    corpus_stream = [0, 3]
    restarts = 1
    optimizer_seed = 0

    def __init__(self, seed, workdir):
        corpus = np.random.default_rng(self.corpus_stream)
        self.corpus = [ref.ginibre(corpus, dims, math.prod(dims)) for dims, _, _ in self.states]
        self.rng = np.random.default_rng([seed, 3])

    @staticmethod
    def dims_label(dims):
        return "x".join(str(d) for d in dims)

    def api(self, lib, tracer=None):
        g = lib["geodiscord"]
        fns = {
            "tensor_ops.validate": g.DensityMatrix,
            "bloch.coefficient_tensor": g.coefficient_tensor,
        }
        for dims, _, _ in self.states:
            fns[f"discord.upper_bound.{self.dims_label(dims)}"] = g.discord_upper_bound
        if tracer is None:
            return fns
        return {span: tracer.wrap(span, fn) for span, fn in fns.items()}

    def rebinding(self, lib, tracer):
        return contextlib.nullcontext()

    def warmup_items(self):
        # the maximally mixed state stops the optimizer after its minimum sweeps
        return [{"states": [(dims, parts, np.eye(math.prod(dims)) / math.prod(dims)) for dims, parts, _ in self.states]}]

    def cycle(self, index):
        cases = []
        for (dims, parts, rotated), rho in zip(self.states, self.corpus):
            u = ref.local_unitary(self.rng, dims, rotated)
            cases.append((dims, parts, u @ rho @ u.conj().T))
        return [{"states": cases}]

    def label(self, item):
        return "pass"

    def call(self, api, item):
        results = []
        for dims, parts, matrix in item["states"]:
            rho = api["tensor_ops.validate"](matrix, dims)
            coeffs = api["bloch.coefficient_tensor"](rho)
            bound = api[f"discord.upper_bound.{self.dims_label(dims)}"]
            for part in parts:
                value, iso = bound(coeffs, part, restarts=self.restarts, seed=self.optimizer_seed)
                results.append((dims, part, matrix, coeffs, value, iso))
        return results

    def check(self, item, out, lib):
        g = lib["geodiscord"]
        problems = []
        gaps = []
        misses = 0
        for dims, part, matrix, coeffs, value, iso in out:
            c = ref.coefficients(matrix, dims)
            tol = _tolerance(c)
            lower = ref.discord_lower_bound(c, part)
            label = f"{self.dims_label(dims)} party {part}"
            if value < lower - tol:
                problems.append(f"{label}: upper {value!r} below lower bound {lower!r}")
            replay = g.discord_from_isometry(coeffs, iso, part)
            if not _close(replay, value, tol):
                problems.append(f"{label}: isometry gives {replay!r}, returned {value!r}")
            # for a qubit party the lower bound is the closed form; with one
            # restart the optimizer can stop short of it, which is counted
            if dims[part - 1] == 2 and value - lower > 1e-6 * ref.norm_sq(c):
                misses += 1
            gaps.append(value - lower)
        return problems, {"bracket_gaps": gaps, "qubit_party_misses": misses}


def _state_text(matrix, dims):
    rows = [[[float(z.real), float(z.imag)] for z in row] for row in matrix]
    return json.dumps({"dims": list(dims), "matrix": rows})


def _write(path, text):
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)


def _pauli_rows(matrix, n):
    """(label, expectation) for every Pauli string of an n-qubit state."""
    c = ref.coefficients(matrix, (2,) * n) * 2.0 ** (n / 2.0)
    return [("".join("IXYZ"[i] for i in index), repr(float(c[index]))) for index in np.ndindex(c.shape)]


def _csv_text(rows):
    return "label,value\n" + "".join(f"{label},{value}\n" for label, value in rows)


# the states ``gen`` can be asked for, with their plain-NumPy references
GEN_STATES = {
    "ghz(3)": (ref.ghz(3), (2, 2, 2)),
    "ghz(5)": (ref.ghz(5), (2,) * 5),
    "ghz-minus(4)": (ref.ghz(4, -1.0), (2,) * 4),
    "w": (ref.w_state(), (2, 2, 2)),
    "bell": (ref.ghz(2), (2, 2)),
    "max-mixed(2,3)": (np.eye(6) / 6.0, (2, 3)),
}


class Cli:
    """In-process ``geodiscord.cli.main(argv)`` on files written at set-up.

    A cycle runs 15 cheap valid commands on each of four file sets, a sweep
    and an oracle check on every other set, and one of each of seven invalid
    inputs: 71 items, about 10% of them invalid.  Two ``gen`` commands per
    set and the heavy commands on half the sets put the median inside the
    dense band of 2-6 ms commands rather than on the edge between two
    command kinds, where it would jump from run to run.
    """

    name = "cli"
    file_sets = 4
    state_sizes = (3, 4, 5, 6, 7)
    pauli_sizes = (4, 5, 6)
    families = ("ghz-noise", "w-ghz", "ghz-ghzminus")
    oracle_grid = "37,72,2"
    sweep_steps = 21
    # (invalid input, the command it is given to); each must exit 2 or 3
    invalid_kinds = (
        ("bad-json", "discord"),
        ("non-hermitian", "discord"),
        ("nan-json", "discord"),
        ("infinity-json", "total"),
        ("nan-csv", "ingest"),
        ("infinity-csv", "ingest"),
        ("bad-label", "ingest"),
    )
    # the layer functions cli imports, with their span names; a traced run
    # rebinds them in the geodiscord.cli namespace only
    cli_layers = {
        "load_state": "formats.load_state",
        "load_pauli_table": "formats.load_pauli_table",
        "ingest_pauli_table": "formats.ingest_pauli_table",
        "save_state": "formats.save_state",
        "bloch_decompose": "bloch.decompose",
        "coefficient_tensor": "bloch.coefficient_tensor",
        "discord_closed_form": "discord.closed_form",
        "discord_upper_bound": "discord.upper_bound",
        "total_quantum_correlations": "total.chain",
        "cross_check_discord": "oracle.cross_check",
        "sweep_family": "sweep.sweep_family",
        "write_sweep_csv": "sweep.write_sweep_csv",
        "named_state": "states.named_state",
    }

    def __init__(self, seed, workdir):
        self.rng = np.random.default_rng([seed, 2])
        self.workdir = workdir
        self.sets = [self._file_set(s) for s in range(self.file_sets)]
        self.invalid = self._invalid_items()
        for item in [item for items in self.sets for item in items] + self.invalid:
            reads = item["kind"] not in ("gen", "sweep")
            item["bytes_read"] = os.path.getsize(item["argv"][2]) if reads else 0

    def _path(self, name):
        return os.path.join(self.workdir, name)

    def _file_set(self, s):
        """The valid items of one file set, with their files written."""
        rng = self.rng
        items = []
        states = {}
        for n in self.state_sizes:
            matrix = ref.ginibre(rng, (2,) * n, 2**n)
            path = self._path(f"state{n}_{s}.json")
            _write(path, _state_text(matrix, (2,) * n))
            states[n] = (path, matrix)
            part = int(rng.integers(1, n + 1))
            items.append({"kind": "discord", "argv": ["discord", "--state", path, "--part", str(part), "--json"],
                          "matrix": matrix, "part": part, "label": f"discord:n{n}"})
        for n, (path, matrix) in states.items():
            items.append({"kind": "total", "argv": ["total", "--state", path, "--json"],
                          "matrix": matrix, "label": f"total:n{n}"})
        for n in self.pauli_sizes:
            matrix = ref.ginibre(rng, (2,) * n, 2**n)
            path = self._path(f"pauli{n}_{s}.csv")
            _write(path, _csv_text(_pauli_rows(matrix, n)))
            part = int(rng.integers(1, n + 1))
            items.append({"kind": "discord", "argv": ["ingest", "--pauli", path, "--part", str(part), "--json"],
                          "matrix": matrix, "part": part, "label": f"ingest:n{n}"})
        for i, k in enumerate(rng.choice(len(GEN_STATES), 2, replace=False)):
            name = list(GEN_STATES)[k]
            path = self._path(f"gen_{s}_{i}.json")
            items.append({"kind": "gen", "argv": ["gen", "--name", name, "--out", path],
                          "name": name, "out": path, "label": "gen"})
        if s % 2:
            return items
        family = self.families[int(rng.integers(len(self.families)))]
        path = self._path(f"sweep_{s}.csv")
        items.append({"kind": "sweep", "argv": ["sweep", "--family", family, "--from", "0", "--to", "1",
                                                "--steps", str(self.sweep_steps), "--out", path, "--json"],
                      "family": family, "out": path, "label": "sweep"})
        path, matrix = states[3]
        part = int(rng.integers(1, 4))
        items.append({"kind": "oracle", "argv": ["discord", "--state", path, "--part", str(part), "--oracle",
                                                 "--grid", self.oracle_grid, "--json"],
                      "matrix": matrix, "part": part, "label": "oracle"})
        return items

    def _invalid_items(self):
        """One item per invalid kind, each file made from a fresh 3-qubit state."""
        rng = self.rng
        text = _state_text(ref.ginibre(rng, (2, 2, 2), 8), (2, 2, 2))
        i, j = (int(x) for x in rng.integers(0, 8, size=2))
        files = {"bad-json": text[: int(rng.integers(len(text) // 4, 3 * len(text) // 4))]}
        for kind, edit in (("non-hermitian", lambda z: z + 0.05), ("nan-json", lambda z: float("nan")),
                           ("infinity-json", lambda z: float("inf"))):
            bad = json.loads(text)
            col = (i + 1 + j % 7) % 8 if kind == "non-hermitian" else j  # off the diagonal
            bad["matrix"][i][col][0] = edit(bad["matrix"][i][col][0])
            files[kind] = json.dumps(bad)
        rows = _pauli_rows(ref.ginibre(rng, (2, 2, 2), 8), 3)
        pick = int(rng.integers(1, len(rows)))
        label = list(rows[pick][0])
        label[int(rng.integers(3))] = "Q"
        for kind, row in (("nan-csv", (rows[pick][0], "nan")), ("infinity-csv", (rows[pick][0], "inf")),
                          ("bad-label", ("".join(label), rows[pick][1]))):
            edited = rows[:pick] + [row] + rows[pick + 1:]
            files[kind] = _csv_text(edited)
        items = []
        for kind, command in self.invalid_kinds:
            path = self._path(f"invalid_{kind}")
            _write(path, files[kind])
            flag = "--pauli" if command == "ingest" else "--state"
            argv = [command, flag, path] + ([] if command == "total" else ["--part", "1"]) + ["--json"]
            items.append({"kind": "invalid", "argv": argv, "label": f"invalid:{kind}"})
        return items

    def warmup_items(self):
        return self.sets[0]

    def cycle(self, index):
        items = []
        for s, valid in enumerate(self.sets):
            items += valid + self.invalid[s :: self.file_sets]
        return items

    def label(self, item):
        return item["label"]

    def api(self, lib, tracer=None):
        main = lib["geodiscord.cli"].main
        if tracer is None:
            return {"main": main}
        wrapped = {cmd: tracer.wrap(f"cli.{cmd}", main)
                   for cmd in ("discord", "total", "ingest", "sweep", "gen")}
        return {"main": lambda argv: wrapped[argv[0]](argv)}

    def rebinding(self, lib, tracer):
        return tracer.rebind(lib["geodiscord.cli"], self.cli_layers)

    def call(self, api, item):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = api["main"](item["argv"])
            except SystemExit as exc:
                code = exc.code
        return code, out.getvalue(), err.getvalue()

    def check(self, item, out, lib):
        code, stdout, stderr = out
        extra = {"exit": code}
        if item["kind"] == "invalid":
            if code in (2, 3):
                return [], extra
            return [f"{item['label']}: exit {code!r}, expected 2 or 3"], extra
        if code != 0:
            return [f"{item['label']}: exit {code!r}: {stderr.strip()[-200:]}"], extra
        try:
            return self._check_valid(item, stdout), extra
        except (ValueError, KeyError, TypeError, IndexError, OSError) as exc:
            return [f"{item['label']}: unreadable output ({exc!r})"], extra

    def _check_valid(self, item, stdout):
        kind = item["kind"]
        if kind == "gen":
            with open(item["out"], encoding="utf-8") as handle:
                doc = json.load(handle)
            got = np.array([[complex(*z) for z in row] for row in doc["matrix"]])
            expected, dims = GEN_STATES[item["name"]]
            if doc["dims"] != list(dims) or got.shape != expected.shape or np.abs(got - expected).max() > 1e-12:
                return [f"gen {item['name']}: written state differs from the reference"]
            return []
        payload = json.loads(stdout)
        if kind == "sweep":
            return self._check_sweep(item, payload)
        matrix = item["matrix"]
        c = ref.coefficients(matrix, (2,) * (matrix.shape[0].bit_length() - 1))
        tol = _tolerance(c)
        if kind == "total":
            expected = sum(ref.greedy_chain(c, range(1, c.ndim + 1)))
            if not _close(payload["q"], expected, tol):
                return [f"{item['label']}: q {payload['q']!r}, reference {expected!r}"]
            return []
        problems = []
        expected = ref.discord_lower_bound(c, item["part"])
        if not _close(payload["value"], expected, tol):
            problems.append(f"{item['label']}: {payload['value']!r}, reference {expected!r}")
        if kind == "oracle":
            brute = payload["oracle"]["value"]
            # the grid search minimizes over axes, so it can only sit above D
            if not expected - tol <= brute <= expected + 1e-6:
                problems.append(f"oracle: {brute!r} against D = {expected!r}")
        return problems

    def _check_sweep(self, item, payload):
        family = item["family"]
        ps = np.linspace(0.0, 1.0, self.sweep_steps)
        if len(payload) != len(ps):
            return [f"sweep: {len(payload)} rows, expected {len(ps)}"]
        with open(item["out"], encoding="utf-8") as handle:
            lines = handle.read().strip().split("\n")
        problems = []
        if lines[0] != "p,d1,d2,d3,q" or len(lines) != len(ps) + 1:
            problems.append("sweep: CSV header or row count is wrong")
        for row, line, p in zip(payload, lines[1:], ps):
            c = ref.coefficients(ref.family(family, p), (2, 2, 2))
            tol = _tolerance(c)
            expected = [ref.discord_lower_bound(c, k) for k in (1, 2, 3)]
            expected.append(sum(ref.greedy_chain(c, (1, 2, 3))))
            got = [row["d1"], row["d2"], row["d3"], row["q"]]
            if not _close(row["p"], p, 1e-12) or not all(map(_close, got, expected, [tol] * 4)):
                problems.append(f"sweep {family} p={p}: {got} against {expected}")
            cells = [float(x) for x in line.split(",")]
            if any(abs(x - y) > 1e-11 * max(1.0, abs(y)) for x, y in zip(cells, [row["p"]] + got)):
                problems.append(f"sweep {family} p={p}: CSV row differs from the JSON row")
        return problems


WORKLOADS = {w.name: w for w in (Qubits, Cli, Qudit)}
