"""Reference implementations the tests compare the package against.

Each is the plain, slow form of something the package does faster or no
longer needs: stacking and composing sparse matrices, and echelon form by
back-elimination through every pivot row.
"""

from __future__ import annotations

from typing import Callable, Iterable

from qcalg.exactlin import Matrix, _is_one, drop_zeros, exact_quotient, row_add


def compose(a: Matrix, b: Matrix) -> Matrix:
    """a @ b (apply b first)."""
    if a.cols != b.rows:
        raise ValueError(f"shape mismatch: {a.rows}x{a.cols} @ {b.rows}x{b.cols}")
    by_row: dict[int, dict] = {}
    for (i, j), v in a.entries.items():
        by_row.setdefault(i, {})[j] = v
    entries: dict = {}
    b_rows = b.row_dicts()
    for i, row in by_row.items():
        acc: dict = {}
        for j, v in row.items():
            acc = row_add(acc, b_rows[j], v)
        for k, v in acc.items():
            entries[(i, k)] = v
    return Matrix(a.rows, b.cols, entries)


def vstack(mats: "Iterable[Matrix]") -> Matrix:
    """The matrices' rows one block under the other."""
    mats = list(mats)
    if not mats:
        raise ValueError("vstack of nothing")
    cols = mats[0].cols
    entries: dict = {}
    offset = 0
    for m in mats:
        if m.cols != cols:
            raise ValueError("vstack: column counts differ")
        for (i, j), v in m.entries.items():
            entries[(i + offset, j)] = v
        offset += m.rows
    return Matrix(offset, cols, entries)


def rref_full_scan(rows: "Iterable[dict]",
                   lead_of: "Callable[[dict], int]" = min) -> "list[dict]":
    """Reduced row echelon form, eliminating each new pivot row from every
    earlier pivot row that holds its lead: one step per pivot, per row."""
    pivots: dict[int, dict] = {}
    for row in rows:
        row = drop_zeros(row)
        for j in [c for c in row if c in pivots]:
            v = row.get(j)
            if v:
                row = row_add(row, pivots[j], -v)
        if not row:
            continue
        lead = lead_of(row)
        inv = row[lead]
        if not _is_one(inv):
            row = {j: exact_quotient(v, inv) for j, v in row.items()}
        for col, piv in list(pivots.items()):
            if lead in piv:
                pivots[col] = row_add(piv, row, -piv[lead])
        pivots[lead] = row
    return [pivots[c] for c in sorted(pivots)]
