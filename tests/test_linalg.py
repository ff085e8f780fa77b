import random
from fractions import Fraction

import pytest

from ncsym import integer_rank


def fraction_rank(rows):
    """Independent oracle: plain Gaussian elimination over the rationals."""
    m = [[Fraction(v) for v in row] for row in rows]
    rank = 0
    for col in range(len(m[0]) if m else 0):
        pivot = next((i for i in range(rank, len(m)) if m[i][col]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        lead = m[rank][col]
        for i in range(len(m)):
            if i != rank and m[i][col]:
                factor = m[i][col] / lead
                m[i] = [a - factor * b for a, b in zip(m[i], m[rank])]
        rank += 1
    return rank


def test_known_ranks():
    assert integer_rank([[1, 0], [0, 1]]) == 2
    assert integer_rank([[1, 2], [2, 4]]) == 1
    assert integer_rank([[0, 0], [0, 0]]) == 0
    assert integer_rank([]) == 0
    assert integer_rank([[2, 4, 6], [1, 2, 3], [3, 6, 9]]) == 1


def test_rectangular():
    assert integer_rank([[1, 2, 3]]) == 1
    assert integer_rank([[1], [2], [3]]) == 1
    assert integer_rank([[1, 1, 0], [0, 1, 1]]) == 2


def test_zero_column_skipping():
    assert integer_rank([[0, 1, 2], [0, 2, 5]]) == 2
    assert integer_rank([[0, 0, 1], [0, 0, 2]]) == 1


def test_big_integers_stay_exact():
    big = 10**30
    assert integer_rank([[big, 0], [0, big]]) == 2
    assert integer_rank([[big, big], [big, big]]) == 1


def test_ragged_rows_rejected():
    with pytest.raises(ValueError):
        integer_rank([[1, 2], [3]])


def test_against_fraction_oracle_on_random_matrices():
    rng = random.Random(7)
    for _ in range(100):
        rows = rng.randrange(1, 7)
        cols = rng.randrange(1, 7)
        m = [[rng.randrange(-5, 6) for _ in range(cols)] for _ in range(rows)]
        assert integer_rank(m) == fraction_rank(m)
