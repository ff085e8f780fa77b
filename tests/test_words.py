import itertools

import pytest

from ncsym import (
    EMPTY_WORD,
    SetComposition,
    Word,
    bracket_format,
    disjoint,
    hall_tree,
    is_lyndon,
    left_quasi_shuffle,
    lyndon_split,
    pairing,
    quasi_shuffle,
    restriction_tensor_sum,
    tree_leaves,
    word_restrict,
)

W = Word.parse


def words_of(texts):
    return {W(t) for t in texts}


class TestWordBasics:
    def test_parse_format(self):
        assert W("1|3|24").letters == ((1,), (3,), (2, 4))
        assert W("1|3|24").format() == "1|3|24"
        assert W("") == EMPTY_WORD

    def test_letters_may_repeat_elements(self):
        w = Word([(1, 2), (2, 3)])
        assert w.letters == ((1, 2), (2, 3))

    def test_empty_letter_rejected(self):
        with pytest.raises(ValueError, match="^empty letter not allowed$"):
            Word([(1,), ()])

    def test_prefix_suffix(self):
        w = W("1|3|24")
        assert w.prefix(2) == W("1|3")
        assert w.suffix(1) == W("3|24")
        assert w.suffix(3) == EMPTY_WORD

    def test_disjoint(self):
        assert disjoint(W("1|3"), W("24"))
        assert not disjoint(W("12"), W("23"))
        assert disjoint(W("12"), EMPTY_WORD)


class TestQuasiShuffle:
    def test_single_letters(self):
        assert quasi_shuffle(W("1"), W("2")) == words_of(["1|2", "12", "2|1"])

    def test_worked_example(self):
        got = quasi_shuffle(W("1|3"), W("24"))
        assert got == words_of(["1|3|24", "1|234", "1|24|3", "124|3", "24|1|3"])

    def test_empty_sides(self):
        u = W("1|3")
        assert quasi_shuffle(u, EMPTY_WORD) == {u}
        assert quasi_shuffle(EMPTY_WORD, u) == {u}

    def test_rejects_overlap(self):
        with pytest.raises(ValueError):
            quasi_shuffle(W("12"), W("23"))

    def test_count_for_two_one(self):
        # D(2,1) = 5 regardless of letter contents
        assert len(quasi_shuffle(W("12|5"), W("34"))) == 5

    def test_left_worked_example(self):
        got = left_quasi_shuffle(W("1|3"), W("24"))
        assert got == words_of(["1|3|24", "1|234", "1|24|3", "124|3"])

    def test_left_projections(self):
        for w in left_quasi_shuffle(W("1|3"), W("24")):
            gamma = SetComposition(w.letters)
            assert gamma.restrict({1, 3}) == SetComposition.parse("1|3")
            assert gamma.restrict({2, 4}) == SetComposition.parse("24")

    def test_left_count_for_two_one(self):
        assert len(left_quasi_shuffle(W("1|3"), W("24"))) == 4

    def test_left_rejects_empty(self):
        with pytest.raises(ValueError):
            left_quasi_shuffle(EMPTY_WORD, W("1"))
        with pytest.raises(ValueError):
            left_quasi_shuffle(W("1"), EMPTY_WORD)

    def test_left_subset_of_full(self):
        u, v = W("1|3"), W("24")
        assert left_quasi_shuffle(u, v) <= quasi_shuffle(u, v)


class TestPairing:
    def test_merge_case(self):
        assert pairing(W("1|3|24"), W("1|3"), W("24")) == W("1|234")

    def test_involution(self):
        u, v = W("1|3"), W("24")
        for w in left_quasi_shuffle(u, v):
            mate = pairing(w, u, v)
            assert mate != w
            assert pairing(mate, u, v) == w
            assert abs(mate.length - w.length) == 1

    def test_rejects_non_member(self):
        with pytest.raises(ValueError):
            pairing(W("24|1|3"), W("1|3"), W("24"))


class TestRestriction:
    def test_word_restrict(self):
        assert word_restrict(W("38|12|4"), {1, 3}) == W("3|1")

    def test_word_restrict_rejects_overlapping_letters(self):
        with pytest.raises(ValueError):
            word_restrict(Word([(1, 2), (2, 3)]), {1})

    def test_tensor_sum_r2(self):
        assert restriction_tensor_sum(2, {1}, {2}) == {}

    def test_tensor_sum_r3(self):
        assert restriction_tensor_sum(3, {1, 3}, {2}) == {}

    def test_tensor_sum_all_r4(self):
        base = frozenset(range(1, 5))
        for size in range(1, 4):
            for extra in itertools.combinations(range(2, 5), size - 1):
                left = frozenset((1,) + extra)
                assert restriction_tensor_sum(4, left, base - left) == {}

    def test_tensor_sum_validation(self):
        with pytest.raises(ValueError):
            restriction_tensor_sum(3, {2}, {1, 3})
        with pytest.raises(ValueError):
            restriction_tensor_sum(3, {1, 2, 3}, set())
        with pytest.raises(ValueError):
            restriction_tensor_sum(3, {1, 2}, {2, 3})

    def test_unanchored_analogue_does_not_vanish(self):
        # dropping the anchor condition breaks the cancellation, so the
        # vanishing above is not an artifact of the bookkeeping
        from ncsym import set_compositions

        acc = {}
        for gamma in set_compositions(2):
            sign = -1 if gamma.length % 2 else 1
            pair = (
                Word.from_parts(gamma.restrict({1})),
                Word.from_parts(gamma.restrict({2})),
            )
            acc[pair] = acc.get(pair, 0) + sign
        assert {k: v for k, v in acc.items() if v} != {}


class TestLyndon:
    def test_examples(self):
        assert is_lyndon("aabb")
        assert not is_lyndon("aa")
        assert is_lyndon("a")
        assert not is_lyndon("ba")

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            is_lyndon("")

    def test_split_chain(self):
        assert lyndon_split("aabb") == ("a", "abb")
        assert lyndon_split("abb") == ("ab", "b")
        assert lyndon_split("ab") == ("a", "b")

    def test_split_factors_are_lyndon(self):
        for word in ("aabb", "aab", "aabab", "abb"):
            u, v = lyndon_split(word)
            assert is_lyndon(u) and is_lyndon(v)
            assert u + v == word

    def test_split_rejects_bad_input(self):
        with pytest.raises(ValueError):
            lyndon_split("a")
        with pytest.raises(ValueError):
            lyndon_split("ba")

    def test_hall_tree(self):
        assert hall_tree("aabb") == ("a", (("a", "b"), "b"))
        assert hall_tree("a") == "a"
        assert hall_tree("ab") == ("a", "b")

    def test_bracket_format(self):
        assert bracket_format(hall_tree("aabb")) == "[a,[[a,b],b]]"

    def test_leaves_read_the_word(self):
        for word in ("aabb", "aabab", "ab", "a"):
            assert "".join(tree_leaves(hall_tree(word))) == word

    def test_hall_rejects_non_lyndon(self):
        with pytest.raises(ValueError):
            hall_tree("bab")

    def test_custom_key_reverses_alphabet(self):
        # under the reversed order b < a, "ba" is Lyndon and "ab" is not
        key = {"a": 1, "b": 0}.get
        assert is_lyndon("ba", key=key)
        assert not is_lyndon("ab", key=key)

    def test_binary_lyndon_counts_match_necklace_oracle(self):
        def mobius(d):
            m, k = d, 0
            p = 2
            while p * p <= m:
                if m % p == 0:
                    m //= p
                    if m % p == 0:
                        return 0
                    k += 1
                p += 1
            if m > 1:
                k += 1
            return (-1) ** k

        def oracle(n):
            total = sum(mobius(d) * 2 ** (n // d) for d in range(1, n + 1) if n % d == 0)
            return total // n

        for n in range(1, 7):
            count = sum(
                1
                for word in itertools.product("ab", repeat=n)
                if is_lyndon("".join(word))
            )
            assert count == oracle(n)
