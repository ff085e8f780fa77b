"""Exact rank of integer matrices by fraction-free (Bareiss) elimination.

Every intermediate entry is a minor of the original matrix, so the
divisions are exact and arbitrary-precision ints never leave the integers.
"""

from __future__ import annotations

__all__ = ["integer_rank"]


def integer_rank(rows):
    """Rank of a matrix given as a sequence of equal-length int rows."""
    m = [list(row) for row in rows]
    if not m:
        return 0
    width = len(m[0])
    for row in m:
        if len(row) != width:
            raise ValueError("rows must all have the same length")
    rank = 0
    prev = 1
    for col in range(width):
        pivot = next((i for i in range(rank, len(m)) if m[i][col]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        lead = m[rank][col]
        for i in range(rank + 1, len(m)):
            factor = m[i][col]
            row = m[i]
            for j in range(col + 1, width):
                value, rem = divmod(lead * row[j] - factor * m[rank][j], prev)
                assert rem == 0, "fraction-free elimination lost exactness"
                row[j] = value
            row[col] = 0
        prev = lead
        rank += 1
        if rank == len(m):
            break
    return rank

