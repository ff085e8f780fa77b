"""Trusted inside, strict at the boundary.

Internal results are built without re-sorting or re-checking, so each one
must already equal its rebuild through the public constructor; the public
entries must still reject bad data with their documented messages.
"""

import itertools
import re

import pytest

from ncsym import (
    EMPTY_PARTITION,
    NCSymElement,
    SetComposition,
    SetPartition,
    TensorElement,
    Word,
    antipode,
    compositions_of,
    coproduct,
    left_quasi_shuffle,
    pairing,
    quasi_shuffle,
    refinements,
    serialize,
    set_compositions,
    set_partitions,
)

P = SetPartition.parse
C = SetComposition.parse
W = Word.parse
STANDARD = [p for n in range(6) for p in set_partitions(n)]
SMALL = [p for n in range(3) for p in set_partitions(n)]


def canonical_partition(q):
    rebuilt = SetPartition(q.blocks)
    assert rebuilt == q and q.blocks == rebuilt.blocks and hash(rebuilt) == hash(q)


def canonical_groups(value, cls, attr):
    groups = getattr(value, attr)
    rebuilt = cls(groups)
    assert rebuilt == value and groups == getattr(rebuilt, attr)


class TestTrustedResultsAreCanonical:
    def test_partition_operations(self):
        for p in STANDARD:
            canonical_partition(p)
            canonical_partition(p.standardize())
            for k in (0, 1, 3):
                canonical_partition(p.shift(k))
                canonical_partition(p.shift(k).standardize())
            for atom in p.atoms():
                canonical_partition(atom)
            for size in range(p.length + 1):
                for picked in itertools.combinations(range(1, p.length + 1), size):
                    sub = p.sub_partition(picked)
                    canonical_partition(sub)
                    canonical_partition(sub.standardize())
            for q in SMALL:
                canonical_partition(p.concat(q))
                canonical_partition(q.concat(p))

    def test_elements(self):
        for p in STANDARD:
            x = NCSymElement.from_partition(p)
            delta = coproduct(x)
            assert TensorElement(delta.items()) == delta
            for (left, right), _ in delta.items():
                canonical_partition(left)
                canonical_partition(right)
            assert delta.twist() == delta
            s = antipode(x)
            assert NCSymElement(s.items()) == s
            for q, _ in s.items():
                canonical_partition(q)
            for y in (x + s, x - s, -s, 3 * s, s * x):
                assert NCSymElement(y.items()) == y

    def test_compositions(self):
        comps = list(set_compositions(4))
        for gamma in comps:
            canonical_groups(gamma, SetComposition, "parts")
            for fine in refinements(gamma):
                canonical_groups(fine, SetComposition, "parts")
            ground = gamma.ground()
            for size in range(len(ground) + 1):
                for keep in itertools.combinations(ground, size):
                    canonical_groups(gamma.restrict(keep), SetComposition, "parts")
            positions = range(1, gamma.length + 1)
            for size in range(gamma.length + 1):
                for picked in itertools.combinations(positions, size):
                    canonical_groups(gamma.subsequence(picked), SetComposition, "parts")
        for gamma in compositions_of((2, 5, 7)):
            canonical_groups(gamma, SetComposition, "parts")

    def test_words(self):
        for k in range(4):
            for l in range(4):
                # Interleaved elements, so merged letters need their sort.
                u = Word((2 * i - 1,) for i in range(1, k + 1))
                v = Word((2 * j,) for j in range(1, l + 1))
                for w in quasi_shuffle(u, v):
                    canonical_groups(w, Word, "letters")
                    for i in range(w.length + 1):
                        canonical_groups(w.prefix(i), Word, "letters")
                        canonical_groups(w.suffix(i), Word, "letters")
                if k and l:
                    for w in left_quasi_shuffle(u, v):
                        canonical_groups(pairing(w, u, v), Word, "letters")
        u, v = W("14|3"), W("25|6")
        for w in left_quasi_shuffle(u, v):
            canonical_groups(w, Word, "letters")
            canonical_groups(pairing(w, u, v), Word, "letters")


def _raises(exc, message, thunk):
    with pytest.raises(exc, match=f"^{re.escape(message)}$"):
        thunk()


class TestBoundaryStaysStrict:
    @pytest.mark.parametrize(
        "blocks, message",
        [
            ([(1, 1)], "duplicate element 1 within a block"),
            ([(0, 1)], "block elements must be positive integers, got 0"),
            ([(-2,), (1,)], "block elements must be positive integers, got -2"),
            ([(1,), (True,)], "block elements must be positive integers, got True"),
        ],
    )
    def test_partition_constructor(self, blocks, message):
        _raises(ValueError, message, lambda: SetPartition(blocks))
        _raises(ValueError, message, lambda: serialize.partition_from_obj(blocks))

    def test_is_standard(self):
        assert SetPartition([(2,), (3,)]).is_standard() is False
        assert SetPartition([(1, 3)]).is_standard() is False
        assert SetPartition([(3, 1), (2,)]).is_standard() is True
        assert EMPTY_PARTITION.is_standard() is True

    def test_element_keys(self):
        message = "element terms must be standard partitions, got SetPartition('2')"
        obj = {"terms": [{"coeff": "1", "partition": [[2]]}]}
        _raises(ValueError, message, lambda: NCSymElement({P("2"): 1}))
        _raises(ValueError, message, lambda: NCSymElement.from_partition(P("2")))
        _raises(ValueError, message, lambda: TensorElement({(P("2"), P("1")): 1}))
        _raises(ValueError, message, lambda: serialize.element_from_obj(obj))
        message = "term keys must be SetPartition, got str"
        _raises(TypeError, message, lambda: NCSymElement({"1": 1}))
        message = "tensor keys must be pairs of partitions"
        _raises(TypeError, message, lambda: TensorElement({P("1"): 1}))

    @pytest.mark.parametrize("flag", [True, False])
    def test_bool_coefficients(self, flag):
        message = f"coefficients must be int, got {flag}"
        _raises(TypeError, message, lambda: NCSymElement({P("1"): flag}))
        _raises(TypeError, message, lambda: TensorElement({(P("1"), EMPTY_PARTITION): flag}))

    @pytest.mark.parametrize(
        "message, thunk",
        [
            ("duplicate element 1 within a letter", lambda: Word([(1, 1)])),
            ("letter elements must be positive integers, got 0", lambda: Word([(1,), (0,)])),
            ("duplicate element 1 across parts", lambda: SetComposition([(1,), (1, 2)])),
            ("part elements must be positive integers, got 0", lambda: compositions_of([0, 2])),
            ("concat requires standard partitions", lambda: P("1.3").concat(P("1"))),
            ("concat requires standard partitions", lambda: P("1").concat(P("2"))),
            ("shift amount must be a nonnegative integer, got -1", lambda: P("1.2").shift(-1)),
            ("block index 3 out of range 1..2", lambda: P("1.2").sub_partition([3])),
            ("element 3 not in the ground set", lambda: C("1|2").restrict([3])),
            ("part index 0 out of range 1..2", lambda: C("1|2").subsequence([0])),
            ("prefix length 3 out of range", lambda: W("1|2").prefix(3)),
            (
                "word is not a left quasi-shuffle of the given pair",
                lambda: pairing(W("1|2"), W("1"), W("3")),
            ),
        ],
    )
    def test_words_compositions_and_method_arguments(self, message, thunk):
        _raises(ValueError, message, thunk)
