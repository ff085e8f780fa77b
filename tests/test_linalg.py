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


def densified(rows):
    """Mapping rows as dense rows, one column per key met, in sorted order."""
    columns = sorted({key for row in rows for key in row})
    return [[row.get(key, 0) for key in columns] for row in rows]


def random_code(rng):
    """A short restricted growth string, the column key ``hopf`` uses."""
    code = []
    for _ in range(rng.randrange(0, 4)):
        code.append(rng.randrange(0, max(code, default=-1) + 2))
    return bytes(code)


@pytest.mark.parametrize(
    "key",
    [
        lambda rng: rng.randrange(12),
        random_code,
        lambda rng: (random_code(rng), random_code(rng)),
    ],
    ids=["int", "bytes", "code-pair"],
)
def test_mapping_rows_against_fraction_oracle(key):
    rng = random.Random(11)
    for _ in range(200):
        rows = []
        for _ in range(rng.randrange(0, 8)):
            rows.append({key(rng): rng.randrange(-4, 5) for _ in range(rng.randrange(0, 6))})
        # Integer combinations of earlier rows, which must cancel to zero.
        for _ in range(rng.randrange(0, 3)):
            combo = {}
            for row in rng.sample(rows, min(2, len(rows))):
                factor = rng.choice((-3, -1, 2))
                for k, v in row.items():
                    combo[k] = combo.get(k, 0) + factor * v
            rows.append(combo)
        dense = densified(rows)
        assert integer_rank(rows) == fraction_rank(dense)
        # The same rows with their columns met in another order.
        shuffled = []
        for row in rows:
            items = list(row.items())
            rng.shuffle(items)
            shuffled.append(dict(items))
        rng.shuffle(shuffled)
        assert integer_rank(shuffled) == fraction_rank(dense)


def test_mapping_rows_cancel_to_zero():
    rows = [{b"\0": 2, b"\0\1": 4}, {b"\0": -1, b"\0\1": -2}, {b"\0\1": 0}]
    assert integer_rank(rows) == 1
    assert integer_rank([{}, {(b"\0", b""): 0}]) == 0
    big = 10**30
    assert integer_rank([{0: big, 1: 1}, {0: 1, 1: big}, {0: big + 1, 1: big + 1}]) == 2
