"""File formats: state documents and measured Pauli-expectation tables.

States are stored as a UTF-8 JSON document with two fields, ``dims`` (list
of party dimensions) and ``matrix`` (nested rows of [re, im] pairs).  Pauli
tables are two-column CSV files ``label,value`` with a required header row;
labels are strings over {I, X, Y, Z}, one character per qubit.  A label that
is absent is treated as not measured, never as zero.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .bloch import BlochDecomposition, reconstruct_state
from .tensor_ops import MAX_DIMENSION, DensityMatrix, StateValidationError

__all__ = [
    "ParseError",
    "PauliTable",
    "load_state",
    "save_state",
    "dumps_state",
    "load_pauli_table",
    "save_pauli_table",
    "pauli_table_from_decomposition",
    "ingest_pauli_table",
]

class ParseError(ValueError):
    """A file could not be parsed into the expected structure."""


def dumps_state(rho: DensityMatrix) -> str:
    """The state document, one matrix row per line.

    Each row goes through the C JSON encoder on its own, so only one row of
    Python floats exists at a time; the floats print as their ``repr``, so
    every entry reads back bit-identically.
    """
    m = np.ascontiguousarray(rho.matrix)
    pairs = m.view(np.float64).reshape(m.shape + (2,))  # [re, im] of each entry
    body = ",\n    ".join(json.dumps(row.tolist()) for row in pairs)
    return (
        f'{{\n  "dims": {json.dumps(list(rho.party_dims))},\n'
        f'  "matrix": [\n    {body}\n  ]\n}}\n'
    )


def save_state(rho: DensityMatrix, path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(dumps_state(rho))


def load_state(path) -> DensityMatrix:
    """Parse and validate a state document; names the failing check on error."""
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    try:
        payload = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ParseError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(payload, dict) or "dims" not in payload or "matrix" not in payload:
        raise ParseError(f"{path}: expected an object with 'dims' and 'matrix'")
    dims = payload["dims"]
    # int() would read "22" as two parties and truncate 2.7 and true
    if not isinstance(dims, list) or not all(
        isinstance(d, int) and not isinstance(d, bool) for d in dims
    ):
        raise ParseError(f"{path}: dims must be a JSON list of integers")
    side = math.prod(dims)
    if side > MAX_DIMENSION:
        raise ValueError(
            f"{path}: total dimension {side} exceeds the cap of {MAX_DIMENSION}"
        )
    try:
        rows = payload["matrix"]
        matrix = np.array(
            [[complex(entry[0], entry[1]) for entry in row] for row in rows]
        )
    except (TypeError, ValueError, IndexError, OverflowError) as exc:
        raise ParseError(f"{path}: malformed dims or matrix ({exc})") from exc
    return DensityMatrix(matrix, dims)


@dataclass(frozen=True)
class PauliTable:
    """Measured expectation values keyed by Pauli label strings."""

    n_qubits: int
    values: dict

    def __post_init__(self):
        if self.n_qubits > math.log2(MAX_DIMENSION):
            raise ValueError(
                f"{self.n_qubits}-qubit labels exceed the dimension cap {MAX_DIMENSION}"
            )
        # raises for the first bad entry, in table order
        for label, value in self.values.items():
            _check_label(label, self.n_qubits)
            # False for nan and inf too, so a valid value costs one test
            if not abs(value) <= 1.0 + 1e-9:
                if not math.isfinite(value):
                    raise StateValidationError(
                        "pauli-finite", f"expectation for {label} is not finite: {value}"
                    )
                raise StateValidationError(
                    "pauli-range",
                    f"expectation for {label} is {value}, outside [-1, 1]",
                )
        identity = "I" * self.n_qubits
        if identity in self.values and abs(self.values[identity] - 1.0) > 1e-9:
            raise StateValidationError(
                "pauli-identity",
                f"all-identity label must be 1, got {self.values[identity]}",
            )


def _check_label(label: str, n_qubits: int) -> None:
    if len(label) != n_qubits or label.strip("IXYZ"):
        raise ParseError(
            f"bad Pauli label {label!r}: need {n_qubits} characters over I, X, Y, Z"
        )


def load_pauli_table(path) -> PauliTable:
    """Read a ``label,value`` CSV file (header row required).

    Labels are checked by :class:`PauliTable`; the row loop checks only the
    columns, duplicates and numbers.
    """
    with open(path, "r", encoding="utf-8", newline="") as handle:
        reader = csv.reader(handle)
        rows = [row for row in reader if "".join(row).strip()]
    if len(rows) < 2:
        raise ParseError(f"{path}: empty table, need a 'label,value' header and data")
    header = [cell.strip().lower() for cell in rows[0]]
    if header[:2] != ["label", "value"]:
        raise ParseError(f"{path}: first row must be the header 'label,value'")
    values = {}
    for row in rows[1:]:
        if len(row) < 2:
            raise ParseError(f"{path}: row {row!r} does not have two columns")
        label = row[0].strip().upper()
        if label in values:
            raise ParseError(f"{path}: duplicate label {label}")
        try:
            values[label] = float(row[1])
        except ValueError as exc:
            raise ParseError(f"{path}: bad value for {label}: {row[1]!r}") from exc
    # the first label sets the number of qubits
    return PauliTable(len(next(iter(values))), values)


def save_pauli_table(table: PauliTable, path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["label", "value"])
        for label in sorted(table.values):
            writer.writerow([label, f"{table.values[label]:.17g}"])


def _labels(n_qubits: int):
    """Every n-qubit Pauli label, in the C order of the coefficient tensor.

    Made one at a time, so no list of 4^n strings is held.
    """
    return map("".join, itertools.product("IXYZ", repeat=n_qubits))


def pauli_table_from_decomposition(dec: BlochDecomposition) -> PauliTable:
    """Full table of every Pauli expectation encoded by a decomposition."""
    n = dec.n_qubits
    c = 2.0 ** (n / 2.0) * dec.tensor
    values = dict(zip(_labels(n), c.ravel().tolist()))
    values["I" * n] = 1.0
    return PauliTable(n, values)


def ingest_pauli_table(table: PauliTable, strict: bool = False) -> BlochDecomposition:
    """Bloch decomposition from measured single- and joint-Pauli expectations.

    Every non-identity label must be present (absent labels are an error,
    listed in the message).  With ``strict`` the reconstructed matrix must
    pass the full state validator; otherwise non-physical data is admitted
    with a warning and the discord formulas operate on the tensors as given.
    """
    n = table.n_qubits
    values = {**table.values, "I" * n: 1.0}
    try:
        c = np.fromiter(map(values.__getitem__, _labels(n)), float, 4**n)
    except KeyError:
        missing = [label for label in _labels(n) if label not in values]
        raise StateValidationError(
            "missing-labels", f"table is missing Pauli labels: {sorted(missing)}"
        ) from None
    c = c.reshape((4,) * n)
    dec = BlochDecomposition((2,) * n, 2.0 ** (-n / 2.0) * c)
    rho = reconstruct_state(dec)
    try:
        rho.validate()
    except StateValidationError as exc:
        if strict:
            raise
        warnings.warn(
            f"ingested expectations are not a physical state ({exc}); "
            "proceeding on the raw tensors",
            stacklevel=2,
        )
    return dec
