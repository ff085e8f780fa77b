import itertools
import random
import time

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
    word_restrict,
    words,
)
from ncsym.setparts import anchored_compositions, compositions_of
from ncsym.words import _mask, _restriction_kernel

W = Word.parse


def words_of(texts):
    return {W(t) for t in texts}


def suffix_recursion(u, v):
    """The quasi-shuffles by recursion on the leading letters, each pair of
    suffixes rebuilt once per path that reaches it."""
    if not u.letters:
        return {v}
    if not v.letters:
        return {u}
    a, b = u.letters[0], v.letters[0]
    merged = tuple(sorted(a + b))
    steps = ((a, u.suffix(1), v), (merged, u.suffix(1), v.suffix(1)), (b, u, v.suffix(1)))
    return {Word((first,) + w.letters) for first, x, y in steps for w in suffix_recursion(x, y)}


# Disjoint pairs of words, some whose own letters overlap.
PAIRS = [
    (W("1|3"), W("24")),
    (W("1|1"), W("2")),
    (W("12|23"), W("4|45")),
    (W("3|1|3"), W("2|2")),
    (W("5"), W("1|2|3")),
]


def one_element_letters(k, l):
    """1|3|...|2k-1 and 2|4|...|2l: merged letters need their sort."""
    return Word((2 * i - 1,) for i in range(1, k + 1)), Word((2 * j,) for j in range(1, l + 1))


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

    def test_walk_equals_the_suffix_recursion(self):
        pairs = PAIRS + [one_element_letters(k, l) for k in range(4) for l in range(4)]
        for u, v in pairs:
            full = suffix_recursion(u, v)
            assert quasi_shuffle(u, v) == full
            if u.letters and v.letters:
                head = set(u.letters[0])
                assert left_quasi_shuffle(u, v) == {w for w in full if head <= set(w.letters[0])}

    def test_eight_and_eight_letters_in_well_under_five_seconds(self):
        # Rebuilding each pair of suffixes per path took about 5 s on this; one
        # walk builds each of the D(7,8) + D(7,7) words once.
        u, v = one_element_letters(8, 8)
        start = time.perf_counter()
        left = left_quasi_shuffle(u, v)
        assert time.perf_counter() - start < 2.5
        assert len(left) == 157184


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

    def test_membership_agrees_with_the_built_set(self):
        message = "^word is not a left quasi-shuffle of the given pair$"
        for u, v in PAIRS:
            left = left_quasi_shuffle(u, v)
            candidates = set(quasi_shuffle(u, v)) | {EMPTY_WORD, u, v}
            candidates |= {Word(reversed(w.letters)) for w in left}
            candidates |= {w.prefix(w.length - 1) for w in left}
            for w in candidates:
                if w in left:
                    assert pairing(w, u, v) == words._pairing(w, v)
                else:
                    with pytest.raises(ValueError, match=message):
                        pairing(w, u, v)
            with pytest.raises(ValueError, match=message):
                pairing(str(min(left, key=Word.sort_key)), u, v)

    def test_operand_errors_come_first(self):
        with pytest.raises(ValueError, match="^left quasi-shuffle needs nonempty operands$"):
            pairing(W("12|3"), EMPTY_WORD, W("12"))
        with pytest.raises(ValueError, match="^quasi-shuffle operands must be disjoint words$"):
            pairing(W("24|1|3"), W("12"), W("23"))

    def test_eight_and_eight_letters_without_the_set(self, monkeypatch):
        def built(*args):
            raise AssertionError("pairing built the quasi-shuffles")

        monkeypatch.setattr(words, "_qshuffle", built)
        u, v = one_element_letters(8, 8)
        w = Word(u.letters + v.letters)
        start = time.perf_counter()
        mate = pairing(w, u, v)
        assert time.perf_counter() - start < 0.1
        assert mate == Word(u.letters[:-1] + ((2, 15),) + v.letters[1:])
        assert pairing(mate, u, v) == w


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

    def test_tensor_sum_equals_enumeration(self):
        # The body restriction_tensor_sum had before it summed by first parts.
        def by_enumeration(r, left, right):
            acc = {}
            for gamma in anchored_compositions(r):
                pair = tuple(Word(gamma.restrict(side).parts) for side in (left, right))
                acc[pair] = acc.get(pair, 0) + (-1) ** gamma.length
            return {pair: c for pair, c in acc.items() if c}

        cases = 0
        for r in range(2, 6):
            base = frozenset(range(1, r + 1))
            for size in range(1, r):
                for extra in itertools.combinations(range(2, r + 1), size - 1):
                    left = frozenset((1,) + extra)
                    got = restriction_tensor_sum(r, left, base - left)
                    assert got == by_enumeration(r, left, base - left)
                    cases += 1
        assert cases == 26

    def test_unanchored_first_part_sum_equals_brute_force(self):
        splits = 0
        for r in range(1, 6):
            elems = tuple(range(1, r + 1))
            compositions = list(compositions_of(elems))
            for mask in range(1 << r):
                left = frozenset(e for e in elems if mask >> (e - 1) & 1)
                right = frozenset(elems) - left
                want = {}
                for gamma in compositions:
                    key = (gamma.restrict(left).parts, gamma.restrict(right).parts)
                    want[key] = want.get(key, 0) + (-1) ** gamma.length
                want = {key: c for key, c in want.items() if c}
                got = _restriction_kernel(r)(_mask(left), _mask(right), False)
                assert got == want and got
                splits += 1
        assert splits == 62

    def test_one_kernel_shared_across_splits(self):
        # One kernel, and so one memo, for every split of {1..r}, r <= 5,
        # visited with r descending and the left sets shuffled, anchored and
        # unanchored interleaved: each sum equals the brute force over the
        # compositions, and each anchored one restriction_tensor_sum's value
        # from a fresh kernel, so the shared memo leaks nothing between
        # splits.
        rng = random.Random(0)
        signed_sum = _restriction_kernel(5)
        visits = {False: 0, True: 0}
        for r in range(5, 0, -1):
            full = (1 << r) - 1
            splits = [(mask, False) for mask in range(1 << r)]
            splits += [(mask, True) for mask in range(1, full, 2)]
            rng.shuffle(splits)
            compositions = list(compositions_of(range(1, r + 1)))
            for mask, anchored in splits:
                left = frozenset(e for e in range(1, r + 1) if mask >> (e - 1) & 1)
                right = frozenset(range(1, r + 1)) - left
                want = {}
                for gamma in compositions:
                    if anchored and 1 not in gamma.parts[0]:
                        continue
                    key = (gamma.restrict(left).parts, gamma.restrict(right).parts)
                    want[key] = want.get(key, 0) + (-1) ** gamma.length
                want = {key: c for key, c in want.items() if c}
                got = signed_sum(mask, full ^ mask, anchored)
                assert got == want
                if anchored:
                    words_got = {(Word(u), Word(v)): c for (u, v), c in got.items()}
                    assert words_got == restriction_tensor_sum(r, left, right)
                visits[anchored] += 1
        assert visits == {False: 62, True: 26}

    def test_tensor_sum_validation(self):
        with pytest.raises(ValueError):
            restriction_tensor_sum(3, {2}, {1, 3})
        with pytest.raises(ValueError):
            restriction_tensor_sum(3, {1, 2, 3}, set())
        with pytest.raises(ValueError):
            restriction_tensor_sum(3, {1, 2}, {2, 3})

    @pytest.mark.parametrize("bad", [2.5, "3"])
    def test_tensor_sum_checks_its_size_first(self, bad):
        # Unchecked, both end in a TypeError inside the work prediction;
        # -1 and True are among every integer argument's cases in
        # test_canonical.py.
        with pytest.raises(ValueError) as refused:
            restriction_tensor_sum(bad, {1}, {2})
        assert str(refused.value) == f"size must be a nonnegative integer, got {bad!r}"

    def test_unanchored_analogue_does_not_vanish(self):
        # dropping the anchor condition breaks the cancellation, so the
        # vanishing above is not an artifact of the bookkeeping
        from ncsym import set_compositions

        acc = {}
        for gamma in set_compositions(2):
            sign = -1 if gamma.length % 2 else 1
            pair = (
                Word(gamma.restrict({1}).parts),
                Word(gamma.restrict({2}).parts),
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

    def test_split_is_the_longest_lyndon_suffix(self):
        # The one-pass split, at the smallest proper suffix, against the
        # definition on every Lyndon word of length 2 to 7 over abc, in both
        # letter orders.
        for key in (None, {"a": 2, "b": 1, "c": 0}.get):
            for n in range(2, 8):
                for letters in itertools.product("abc", repeat=n):
                    word = "".join(letters)
                    if is_lyndon(word, key):
                        i = next(i for i in range(1, n) if is_lyndon(word[i:], key))
                        assert lyndon_split(word, key) == (word[:i], word[i:]), word

    def test_hall_tree_tests_the_word_once(self, monkeypatch):
        tested = []

        def counted(word, key=None):
            tested.append(word)
            return is_lyndon(word, key)

        monkeypatch.setattr(words, "is_lyndon", counted)
        assert bracket_format(hall_tree("aababbabb")) == "[a,[[[a,b],[[a,b],b]],[[a,b],b]]]"
        assert tested == ["aababbabb"]

    def test_hall_tree(self):
        assert hall_tree("aabb") == ("a", (("a", "b"), "b"))
        assert hall_tree("a") == "a"
        assert hall_tree("ab") == ("a", "b")

    def test_bracket_format(self):
        assert bracket_format(hall_tree("aabb")) == "[a,[[a,b],b]]"

    def test_leaves_read_the_word(self):
        def leaves(tree):
            return leaves(tree[0]) + leaves(tree[1]) if isinstance(tree, tuple) else tree

        for word in ("aabb", "aabab", "ab", "a"):
            assert leaves(hall_tree(word)) == word

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


def test_delannoy_prediction_equals_the_count_recurrence():
    # The sum the quasi-shuffle limits predict from against verify's
    # recurrence, everywhere the sum is exact (min(k, l) <= 21).
    from ncsym.verify import quasi_shuffle_count

    for k in range(22):
        for l in range(22):
            assert words._delannoy(k, l) == quasi_shuffle_count(k, l), (k, l)
