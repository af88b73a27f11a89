"""Correctness gate for the CSVs the benchmark's CLI invocations write.

Every CSV is checked for shape (header, row keys) and for physics
invariants recomputed from its own columns.  When a reference CSV is
given (canonical seed only), every row present in both is also compared
column by column with the tolerances below, which are the Tier-1 ones for
the same quantity (criterion 2 of tests/test_acceptance.py: |dW|, |dC| <=
1e-8 and |dE_F| <= 1e-7).
"""

from __future__ import annotations

import math

HEADERS = {
    "run": ["gt", "W", "concurrence", "eof"],
    "compare": ["gt", "W", "concurrence", "eof", "W_oracle", "concurrence_oracle",
                "eof_oracle", "delta_W", "delta_C", "delta_EF"],
    "sweep": ["m", "gt", "concurrence", "eof"],
}

# columns that identify a row; compared as exact strings
KEY_COLUMNS = {"run": 1, "compare": 1, "sweep": 2}

REFERENCE_TOL = {
    "W": 1e-8, "concurrence": 1e-8, "eof": 1e-7,
    "W_oracle": 1e-8, "concurrence_oracle": 1e-8, "eof_oracle": 1e-7,
    "delta_W": 1e-8, "delta_C": 1e-8, "delta_EF": 1e-7,
}

# slack for values printed with 12 significant digits
PRINT_TOL = 1e-10
# E_F recomputed from the printed C; dE_F/dC stays below 1.5 on [0, 1]
EOF_IDENTITY_TOL = 1e-9


def binary_entropy(x: float) -> float:
    x = min(max(x, 0.0), 1.0)
    out = 0.0
    if x > 0.0:
        out -= x * math.log2(x)
    if x < 1.0:
        out -= (1.0 - x) * math.log2(1.0 - x)
    return out


def eof_from_concurrence(c: float) -> float:
    c = min(max(c, 0.0), 1.0)
    return binary_entropy((1.0 + math.sqrt(1.0 - c * c)) / 2.0)


def parse_csv(text: str) -> tuple[list[str], list[list[str]]]:
    lines = text.split("\n")
    if not lines or lines[-1] != "":
        raise ValueError("CSV does not end with a newline")
    rows = [line.split(",") for line in lines[1:-1]]
    return lines[0].split(","), rows


def _check_row_invariants(kind: str, values: dict[str, float]) -> list[str]:
    problems = []
    for name, v in values.items():
        if not math.isfinite(v):
            return [f"{name} is not finite"]
    pairs = [("W", "concurrence", "eof")]
    if kind == "compare":
        pairs.append(("W_oracle", "concurrence_oracle", "eof_oracle"))
    for w, c, e in pairs:
        if w in values and abs(values[w]) > 1.0 + PRINT_TOL:
            problems.append(f"|{w}| = {abs(values[w])!r} > 1")
        for name in (c, e):
            if not -PRINT_TOL <= values[name] <= 1.0 + PRINT_TOL:
                problems.append(f"{name} = {values[name]!r} outside [0, 1]")
        expected = eof_from_concurrence(values[c])
        if abs(values[e] - expected) > EOF_IDENTITY_TOL:
            problems.append(f"{e} = {values[e]!r} but h((1+sqrt(1-C^2))/2) = {expected!r}")
    if kind == "compare":
        for delta, a, b in (("delta_W", "W", "W_oracle"),
                            ("delta_C", "concurrence", "concurrence_oracle"),
                            ("delta_EF", "eof", "eof_oracle")):
            expected = abs(values[a] - values[b])
            if abs(values[delta] - expected) > PRINT_TOL:
                problems.append(f"{delta} = {values[delta]!r} but |{a} - {b}| = {expected!r}")
    return problems


def check_csv(kind: str, text: str, expected_keys: list[tuple[str, ...]],
              reference: str | None = None) -> list[str]:
    """Problems found in one output CSV; an empty list means it passes.

    expected_keys lists the key-column strings of every row, in order, as
    the invocation's inputs define them.  reference, when given, is the
    canonical CSV whose rows with the same keys must agree within
    REFERENCE_TOL.
    """
    try:
        header, rows = parse_csv(text)
    except ValueError as exc:
        return [str(exc)]
    if header != HEADERS[kind]:
        return [f"header {header} != {HEADERS[kind]}"]
    nkey = KEY_COLUMNS[kind]
    keys = [tuple(r[:nkey]) for r in rows]
    if len(keys) != len(expected_keys):
        return [f"{len(keys)} rows, expected {len(expected_keys)}"]
    problems = []
    for got, want in zip(keys, expected_keys):
        if got != want:
            problems.append(f"row key {got} != expected {want}")
            break

    ref_rows = {}
    if reference is not None:
        _, ref = parse_csv(reference)
        ref_rows = {tuple(r[:nkey]): r for r in ref}
        if not any(k in ref_rows for k in keys):
            problems.append("no row shares its key with the reference")

    for key, row in zip(keys, rows):
        if len(row) != len(header):
            problems.append(f"row {key}: {len(row)} fields, expected {len(header)}")
            continue
        try:
            values = {name: float(x) for name, x in zip(header[nkey:], row[nkey:])}
        except ValueError as exc:
            problems.append(f"row {key}: {exc}")
            continue
        problems += [f"row {key}: {p}" for p in _check_row_invariants(kind, values)]
        ref = ref_rows.get(key)
        if ref is not None:
            for name, x in zip(header[nkey:], ref[nkey:]):
                diff = abs(values[name] - float(x))
                if not diff <= REFERENCE_TOL[name]:
                    problems.append(f"row {key}: {name} off the reference by {diff:.3e} "
                                    f"(tolerance {REFERENCE_TOL[name]:g})")
    return problems


def rows_changed(text: str, reference: str) -> int:
    """Number of lines (header included) whose bytes differ from the reference."""
    got, ref = text.split("\n"), reference.split("\n")
    return sum(a != b for a, b in zip(got, ref)) + abs(len(got) - len(ref))
