"""Exact rank of integer matrices by sparse elimination over the integers.

Rows stay sparse, as ``{column: int}`` maps.  Each row is reduced by the
stored pivot rows, lowest column first: with a and b the pivot's and the
row's leading entries divided by their gcd, the row becomes
a * row - b * pivot, which clears that column and only touches columns to
its right.  What is left is divided by the gcd of its entries and, if
anything remains, becomes the pivot of its lowest column.  Every step is an
integer combination that keeps the row space over the rationals, so the
number of pivots is the rank, exactly.
"""

from __future__ import annotations

import math

__all__ = ["integer_rank"]


def integer_rank(rows):
    """Rank of a matrix given as equal-length int rows or as {column: int}
    maps whose columns share one ordered type."""
    pivots, widths = {}, set()
    for row in rows:
        if not hasattr(row, "items"):
            row = dict(enumerate(row))
            widths.add(len(row))
        if len(widths) > 1:
            raise ValueError("rows must all have the same length")
        row = {col: v for col, v in row.items() if v}
        while row:
            col = min(row)
            pivot = pivots.get(col)
            if pivot is None:
                g = math.gcd(*row.values())
                pivots[col] = {k: v // g for k, v in row.items()}
                break
            g = math.gcd(pivot[col], row[col])
            a, b = pivot[col] // g, row[col] // g
            if a != 1:
                row = {k: a * v for k, v in row.items()}
            for k, v in pivot.items():
                row[k] = row.get(k, 0) - b * v
            row = {k: v for k, v in row.items() if v}
    return len(pivots)
