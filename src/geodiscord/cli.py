"""Command-line interface.

Exit codes: 0 success, 2 validation error (bad state, bad arguments),
3 parse error (unreadable or malformed file).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import warnings

from .bloch import bloch_decompose, coefficient_tensor
from .discord import discord_closed_form, discord_upper_bound
from .formats import (
    ParseError,
    ingest_pauli_table,
    load_pauli_table,
    load_state,
    save_state,
)
from .oracle import GridSpec, cross_check_discord
from .states import named_state
from .sweep import sweep_family, write_sweep_csv
from .tensor_ops import StateValidationError
from .total import total_quantum_correlations

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_PARSE = 3


def _parse_grid(text: str) -> GridSpec:
    try:
        theta, phi, rounds = (int(part) for part in text.split(","))
    except ValueError as exc:
        raise ValueError(f"--grid expects THETA,PHI,ROUNDS, got {text!r}") from exc
    return GridSpec(theta_steps=theta, phi_steps=phi, refinement_rounds=rounds)


def _emit(payload: dict, as_json: bool) -> None:
    if as_json:
        print(json.dumps(payload, indent=2))
        return
    for key, value in payload.items():
        if isinstance(value, list) and value and isinstance(value[0], dict):
            print(f"{key}:")
            for item in value:
                print("  " + "  ".join(f"{k}={v}" for k, v in item.items()))
        else:
            print(f"{key}: {value}")


def _discord_payload(report) -> dict:
    return {
        "part": report.part,
        "value": report.value,
        "eta_max": report.eta_max,
        "e_max": [float(x) for x in report.e_max],
        "g": report.g.as_matrix().tolist(),
        "norm_c_sq": report.norm_c_sq,
    }


def _cmd_discord(args) -> int:
    rho = load_state(args.state)
    part = args.part
    if not 1 <= part <= rho.n_parties:
        raise ValueError(f"--part {part} out of range 1..{rho.n_parties}")
    if args.oracle:
        if rho.party_dims[part - 1] != 2:
            raise ValueError("--oracle requires the measured party to be a qubit")
        grid = _parse_grid(args.grid) if args.grid else GridSpec()
    if rho.is_qubit_system():
        report = discord_closed_form(bloch_decompose(rho), part)
        payload = _discord_payload(report)
        payload["method"] = "closed-form"
    else:
        value, _ = discord_upper_bound(coefficient_tensor(rho), part)
        payload = {"part": part, "value": value, "method": "upper-bound"}
    if args.oracle:
        check = cross_check_discord(rho, part, grid)
        payload["oracle"] = {
            "value": check.brute_force,
            "gap": check.gap,
            "theta": check.theta,
            "phi": check.phi,
        }
    _emit(payload, args.json)
    return EXIT_OK


def _cmd_total(args) -> int:
    rho = load_state(args.state)
    order = None
    if args.order:
        order = tuple(int(part) for part in args.order.split(","))
    report = total_quantum_correlations(bloch_decompose(rho), order)
    payload = {
        "q": report.q_value,
        "order": list(report.order),
        "steps": [{"part": s.part, "value": s.value} for s in report.steps],
    }
    _emit(payload, args.json)
    return EXIT_OK


def _cmd_sweep(args) -> int:
    rows = sweep_family(args.family, args.p_from, args.p_to, args.steps)
    write_sweep_csv(rows, args.out)
    if args.json:
        payload = [
            {"p": r.p, **{f"d{k}": d for k, d in zip(r.parts, r.discords)}, "q": r.q}
            for r in rows
        ]
        print(json.dumps(payload, indent=2))
    else:
        print(f"wrote {len(rows)} rows to {args.out}")
    return EXIT_OK


def _cmd_ingest(args) -> int:
    table = load_pauli_table(args.pauli)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        dec = ingest_pauli_table(table, strict=args.strict)
    notes = [str(w.message) for w in caught]
    for note in notes:
        print(f"warning: {note}", file=sys.stderr)
    report = discord_closed_form(dec, args.part)
    payload = _discord_payload(report)
    payload["method"] = "closed-form"
    if notes:
        payload["warnings"] = notes
    _emit(payload, args.json)
    return EXIT_OK


def _cmd_gen(args) -> int:
    rho = named_state(args.name)
    save_state(rho, args.out)
    print(f"wrote {args.name} to {args.out}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="geodiscord",
        description="Geometric quantum discord and total quantum correlations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_discord = sub.add_parser("discord", help="discord of one party of a state file")
    p_discord.add_argument("--state", required=True, help="state JSON document")
    p_discord.add_argument("--part", required=True, type=int, help="measured party (1-based)")
    p_discord.add_argument("--oracle", action="store_true", help="also run the brute-force check")
    p_discord.add_argument("--grid", help="oracle grid THETA,PHI,ROUNDS")
    p_discord.add_argument("--json", action="store_true", help="emit JSON")
    p_discord.set_defaults(func=_cmd_discord)

    p_total = sub.add_parser("total", help="total quantum correlations of a state file")
    p_total.add_argument("--state", required=True)
    p_total.add_argument("--order", help="measurement order, e.g. 3,1,2")
    p_total.add_argument("--json", action="store_true")
    p_total.set_defaults(func=_cmd_total)

    p_sweep = sub.add_parser("sweep", help="discord and Q along a mixing family")
    p_sweep.add_argument("--family", required=True)
    p_sweep.add_argument("--from", dest="p_from", required=True, type=float)
    p_sweep.add_argument("--to", dest="p_to", required=True, type=float)
    p_sweep.add_argument("--steps", required=True, type=int)
    p_sweep.add_argument("--out", required=True, help="output CSV path")
    p_sweep.add_argument("--json", action="store_true")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_ingest = sub.add_parser("ingest", help="discord from measured Pauli expectations")
    p_ingest.add_argument("--pauli", required=True, help="label,value CSV table")
    p_ingest.add_argument("--part", required=True, type=int)
    p_ingest.add_argument("--strict", action="store_true", help="reject non-physical data")
    p_ingest.add_argument("--json", action="store_true")
    p_ingest.set_defaults(func=_cmd_ingest)

    p_gen = sub.add_parser("gen", help="write a named reference state")
    p_gen.add_argument("--name", required=True, help="e.g. ghz(3), bell, max-mixed(2,2)")
    p_gen.add_argument("--out", required=True)
    p_gen.set_defaults(func=_cmd_gen)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # built once per process; the handlers look up what they call at call time
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, OSError) as exc:  # ahead of ValueError, its base
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (StateValidationError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
