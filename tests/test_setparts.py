import itertools

import pytest

from ncsym import (
    EMPTY_COMPOSITION,
    EMPTY_PARTITION,
    NotationError,
    SetComposition,
    SetPartition,
    anchored_compositions,
    atomic_set_partitions,
    compositions_of,
    parse,
    refinements,
    set_compositions,
    set_partitions,
)

P = SetPartition.parse
C = SetComposition.parse


class TestParseFormat:
    def test_compact_partition(self):
        assert P("13.28.4").blocks == ((1, 3), (2, 8), (4,))

    def test_empty(self):
        assert P("") == EMPTY_PARTITION
        assert P("∅") == EMPTY_PARTITION
        assert EMPTY_PARTITION.format() == ""

    def test_extended_partition(self):
        assert P("1,13.2,8.4").blocks == ((1, 13), (2, 8), (4,))

    def test_blocks_reordered_by_minimum(self):
        assert SetPartition([(2, 8), (4,), (1, 3)]) == P("13.28.4")

    def test_composition_keeps_order(self):
        assert C("38|12|4").parts == ((3, 8), (1, 2), (4,))
        assert C("38|12|4").format() == "38|12|4"

    def test_roundtrip_compact(self):
        for text in ("13.28.4", "1", "12.346.57.8", ""):
            assert P(text).format() == text

    def test_roundtrip_extended_marker(self):
        big = SetPartition([(13,)])
        assert big.format() == "13,"
        assert P(big.format()) == big
        pair = SetPartition([(1,), (13,)])
        assert P(pair.format()) == pair

    def test_compact_mode_rejects_large_elements(self):
        with pytest.raises(ValueError):
            SetPartition([(13,)]).format("compact")

    @pytest.mark.parametrize("bad", ["13.3", "11", "1..2", "1a", "1,.2", "0", "1|2.3"])
    def test_parse_errors(self, bad):
        with pytest.raises(ValueError):
            P(bad)

    def test_parse_error_names_token(self):
        with pytest.raises(NotationError, match="x"):
            P("1x.2")

    def test_duplicate_across_blocks(self):
        with pytest.raises(ValueError, match="duplicate element 2"):
            SetPartition([(1, 2), (2, 3)])

    def test_empty_block(self):
        with pytest.raises(ValueError, match="^empty block not allowed$"):
            SetPartition([(1,), ()])

    def test_generic_parse_dispatches_on_separator(self):
        assert parse("13.28.4") == P("13.28.4")
        assert parse("38|12|4") == C("38|12|4")
        assert parse("123") == P("123")
        assert parse("") == EMPTY_PARTITION


class TestPartitionOps:
    def test_shift(self):
        assert P("13.2").shift(1) == P("24.3")
        assert P("13.2").shift(0) == P("13.2")
        assert P("1").shift(3) == P("4")

    def test_shift_rejects_negative(self):
        with pytest.raises(ValueError):
            P("1").shift(-1)

    def test_standardize(self):
        assert P("18.4").standardize() == P("13.2")
        assert P("18.4.67").standardize() == P("15.2.34")
        assert P("13.2").standardize() == P("13.2")

    def test_weight_length(self):
        a = P("13.28.4")
        assert (a.weight, a.length) == (5, 3)
        assert (EMPTY_PARTITION.weight, EMPTY_PARTITION.length) == (0, 0)

    def test_concat(self):
        step = P("12").concat(P("124.35"))
        assert step.concat(P("1")) == P("12.346.57.8")
        assert EMPTY_PARTITION.concat(P("1.2")) == P("1.2")
        assert P("13.2").concat(P("1")) == P("13.2.4")

    def test_concat_rejects_nonstandard(self):
        with pytest.raises(ValueError):
            P("2.3").concat(P("1"))

    def test_sub_partition(self):
        a = P("17.235.4.68")
        assert a.sub_partition({1, 3, 4}) == P("17.4.68")
        assert a.sub_partition(range(1, 5)) == a
        assert a.sub_partition(()) == EMPTY_PARTITION

    def test_sub_partition_range_error(self):
        with pytest.raises(ValueError, match="out of range"):
            P("1.2").sub_partition({3})

    def test_is_atomic(self):
        assert P("17.235.4.68").is_atomic()
        assert not P("12.346.57.8").is_atomic()
        assert P("1").is_atomic()
        assert not EMPTY_PARTITION.is_atomic()

    def test_is_atomic_rejects_nonstandard(self):
        with pytest.raises(ValueError):
            P("2.3").is_atomic()

    def test_atoms(self):
        assert P("12.346.57.8").atoms() == (P("12"), P("124.35"), P("1"))
        assert P("17.235.4.68").atoms() == (P("17.235.4.68"),)
        assert EMPTY_PARTITION.atoms() == ()


class TestCompositionOps:
    def test_restrict(self):
        g = C("38|12|4")
        assert g.restrict({3, 4, 8}) == C("38|4")
        assert g.restrict({1, 3}) == C("3|1")
        assert g.restrict(g.ground()) == g

    def test_restrict_rejects_foreign_elements(self):
        with pytest.raises(ValueError, match="not in the ground set"):
            C("38|12|4").restrict({5})

    def test_subsequence(self):
        g = C("38|12|4")
        assert g.subsequence({1, 3}) == C("38|4")
        assert g.subsequence(range(1, 4)) == g
        assert g.subsequence({2}) == C("12")

    def test_subsequence_range_error(self):
        with pytest.raises(ValueError, match="out of range"):
            C("38|12|4").subsequence({4})

    def test_refines(self):
        assert C("2|4|3|17|9").refines(C("234|179"))
        assert C("234|179").refines(C("123479"))
        assert not C("234|179").refines(C("2|4|3|17|9"))
        assert C("2|4|3|17|9").refines(C("2|4|3|17|9"))

    def test_refines_order_of_runs_matters(self):
        assert not C("3|1|2").refines(C("12|3"))
        assert C("3|1|2").refines(C("3|12"))

    def test_refines_ground_mismatch(self):
        with pytest.raises(ValueError):
            C("12").refines(C("13"))

    def test_evaluate_figure_entries(self):
        # one hand-checked value per row; the full table is in the acceptance suite
        assert C("13|2")(P("13.29.458.7")) == P("12.345.67")
        assert C("2|34")(P("13.28.456.7")) == P("12.345.6")
        assert C("1|234")(P("13.29.458.7")) == P("12.38.457.6")

    def test_evaluate_identity(self):
        for text in ("1", "12.3", "13.2.4", "17.235.4.68"):
            a = P(text)
            whole = SetComposition((tuple(range(1, a.length + 1)),))
            assert whole(a) == a

    def test_evaluate_weight_length_law(self):
        g = C("13|2")
        a = P("13.29.458.7")
        picked = [a.blocks[k - 1] for part in g.parts for k in part]
        assert g(a).weight == sum(len(b) for b in picked)
        assert g(a).length == len(picked)

    def test_evaluate_index_error(self):
        with pytest.raises(ValueError, match="out of range"):
            C("13|2")(P("1.2"))

    def test_evaluate_names_the_least_index_out_of_range(self):
        # A later part leaves the partition's blocks; the first such part
        # names its least index past them.
        for gamma, message in (
            ("1|24", "block index 4 out of range 1..3"),
            ("2|45", "block index 4 out of range 1..3"),
            ("3|5|4", "block index 5 out of range 1..3"),
        ):
            with pytest.raises(ValueError) as refused:
                C(gamma)(P("1.2.3"))
            assert str(refused.value) == message

    def test_evaluate_empty_composition(self):
        assert EMPTY_COMPOSITION(P("12.3")) == EMPTY_PARTITION


class TestEnumeration:
    def test_partitions_of_three(self):
        got = [p.format() for p in set_partitions(3)]
        assert got == ["123", "12.3", "13.2", "1.23", "1.2.3"]

    def test_partitions_sorted_by_extended_key(self):
        keys = [p.sort_key() for p in set_partitions(4)]
        assert keys == sorted(keys)
        assert len(keys) == len(set(keys)) == 15

    def test_partitions_restartable(self):
        assert list(set_partitions(4)) == list(set_partitions(4))

    def test_compositions_of_two(self):
        assert {g.format() for g in set_compositions(2)} == {"12", "1|2", "2|1"}

    def test_anchored_of_two(self):
        assert {g.format() for g in anchored_compositions(2)} == {"12", "1|2"}

    def test_anchored_of_three_has_six(self):
        got = {g.format() for g in anchored_compositions(3)}
        assert got == {"123", "12|3", "13|2", "1|23", "1|2|3", "1|3|2"}
        full = {g.format() for g in set_compositions(3)}
        assert got == {t for t in full if "1" in t.split("|")[0]}

    def test_refinements_example(self):
        rho = SetComposition([(3,), (1, 2)])
        assert {g.format() for g in refinements(rho)} == {"3|12", "3|1|2", "3|2|1"}

    def test_refinements_agree_with_predicate(self):
        for rho in set_compositions(3):
            expected = {g.format() for g in set_compositions(3) if g.refines(rho)}
            assert {g.format() for g in refinements(rho)} == expected

    def test_compositions_of_arbitrary_ground(self):
        got = {g.format() for g in compositions_of({3, 7})}
        assert got == {"37", "3|7", "7|3"}

    def test_empty_sizes(self):
        assert list(set_partitions(0)) == [EMPTY_PARTITION]
        assert list(set_compositions(0)) == [EMPTY_COMPOSITION]
        assert list(atomic_set_partitions(0)) == []
        assert list(anchored_compositions(0)) == []

    def test_atomic_counts_small(self):
        assert [sum(1 for _ in atomic_set_partitions(n)) for n in range(1, 6)] == [
            1,
            1,
            2,
            6,
            22,
        ]

    def test_atomic_stream_matches_filter(self):
        for n in range(0, 8):
            assert list(atomic_set_partitions(n)) == [
                p for p in sorted_partitions(n) if p.is_atomic()
            ]

    def test_size_validation(self):
        with pytest.raises(ValueError):
            list(set_partitions(-1))


def sorted_partitions(n):
    """The build-then-sort body ``set_partitions`` replaced, kept as the
    referee of its order."""
    state = [()]
    for x in range(1, n + 1):
        grown = []
        for blocks in state:
            for i in range(len(blocks)):
                grown.append(blocks[:i] + (blocks[i] + (x,),) + blocks[i + 1 :])
            grown.append(blocks + ((x,),))
        state = grown
    return sorted(map(SetPartition._of, state), key=SetPartition.sort_key)


def raw_compositions(elems):
    if not elems:
        yield ()
        return
    for size in range(1, len(elems) + 1):
        for first in itertools.combinations(elems, size):
            rest = tuple(e for e in elems if e not in first)
            for tail in raw_compositions(rest):
                yield (first,) + tail


def sorted_compositions(elements):
    """The build-then-sort body of ``compositions_of``, kept as its referee."""
    comps = map(SetComposition._of, raw_compositions(tuple(sorted(elements))))
    return sorted(comps, key=SetComposition.sort_key)


def sorted_refinements(rho):
    """The build-then-sort body of ``refinements``, kept as its referee."""
    per_part = [list(raw_compositions(part)) for part in rho.parts]
    found = (SetComposition._of(sum(combo, ())) for combo in itertools.product(*per_part))
    return sorted(found, key=SetComposition.sort_key)


# Grounds whose decimal strings nest ("1" in "10" and "100"), where a part
# closing at 1 ("1|") sorts after every string going on with 10 ("10,").
MULTI_DIGIT = [(8, 9, 10, 11, 12), (1, 2, 10, 11, 100), (3, 30, 31, 300)]


class TestLazyEnumeration:
    def test_partitions_match_build_then_sort(self):
        for n in range(11):
            assert list(set_partitions(n)) == sorted_partitions(n), n

    def test_compositions_match_build_then_sort(self):
        for r in range(7):
            assert list(set_compositions(r)) == sorted_compositions(range(1, r + 1)), r

    def test_anchored_match_build_then_sort(self):
        for r in range(7):
            comps = sorted_compositions(range(1, r + 1))
            assert list(anchored_compositions(r)) == [g for g in comps if g.parts and 1 in g.parts[0]]

    def test_multi_digit_grounds(self):
        for ground in MULTI_DIGIT:
            comps = sorted_compositions(ground)
            assert list(compositions_of(ground)) == comps, ground
            for rho in comps:
                assert list(refinements(rho)) == sorted_refinements(rho), rho

    def test_refinements_of_mixed_parts(self):
        for rho in set_compositions(4):
            assert list(refinements(rho)) == sorted_refinements(rho), rho
        rho = SetComposition([(2, 12), (1, 10, 11), (3,)])
        assert list(refinements(rho)) == sorted_refinements(rho)

    @pytest.mark.parametrize(
        "cls, stream, n, first",
        [
            (SetComposition, set_compositions, 12, "1,10,11,12|2,3,4,5,6,7,8,9"),
            (SetPartition, set_partitions, 15, "1,10,11,12,13,14,15.2,3,4,5,6,7,8,9"),
            (SetPartition, atomic_set_partitions, 12, "1,10,11,12.2,3,4,5,6,7,8,9"),
        ],
    )
    def test_first_value_builds_one(self, monkeypatch, cls, stream, n, first):
        built = []
        of = cls._of
        monkeypatch.setattr(cls, "_of", lambda groups: built.append(groups) or of(groups))
        value = next(stream(n))
        assert len(built) == 1
        assert value.format("extended") == first

    def test_arguments_checked_when_called(self):
        for stream in (set_partitions, set_compositions, anchored_compositions, atomic_set_partitions):
            with pytest.raises(ValueError, match="size must be a nonnegative integer, got -1"):
                stream(-1)
        with pytest.raises(ValueError, match="part elements must be positive integers, got 0"):
            compositions_of([0, 2])
        for stream in (set_partitions, set_compositions, anchored_compositions, atomic_set_partitions):
            for flag in (True, False):
                with pytest.raises(ValueError, match=f"size must be a nonnegative integer, got {flag}"):
                    stream(flag)
        with pytest.raises(TypeError, match="refinements expects a set composition"):
            refinements("1|2")


def scanned_is_atomic(part):
    """``is_atomic`` by the reach scan it used before the one cut rule: every
    boundary m in 1..n-1 lies strictly inside some block's [min, max) span."""
    n = part.weight
    if n == 0:
        return False
    reach = 0
    for block in part.blocks:
        if block[0] > reach + 1:
            return False
        reach = max(reach, block[-1] - 1)
    return reach >= n - 1


def scanned_atoms(part):
    """``atoms`` by the chunk scan it used before the one cut rule: a cut
    whenever the blocks since the previous cut cover a full segment."""
    out, chunk, count, top, base = [], [], 0, 0, 0
    for block in part.blocks:
        chunk.append(block)
        count += len(block)
        top = max(top, block[-1])
        if top - base == count:
            out.append(SetPartition([tuple(e - base for e in b) for b in chunk]))
            base, chunk, count = top, [], 0
    return tuple(out)


class TestCutScan:
    def test_equals_the_two_scans_through_weight_nine(self):
        for n in range(10):
            for part in set_partitions(n):
                assert part.atoms() == scanned_atoms(part), part
                assert part.is_atomic() == scanned_is_atomic(part), part

    def test_equals_the_two_scans_past_255_blocks(self):
        # 300 singletons, 150 copies of the atom 13.2, one atom of 301 blocks
        # and the three concatenated: every code past a byte.
        singletons = SetPartition([(i,) for i in range(1, 301)])
        copies = SetPartition([b for k in range(0, 450, 3) for b in ((k + 1, k + 3), (k + 2,))])
        atom = SetPartition([(1, 302)] + [(i,) for i in range(2, 302)])
        joined = singletons.concat(atom).concat(copies)
        for part in (singletons, copies, atom, joined):
            assert part.length > 255
            assert part.atoms() == scanned_atoms(part)
            assert part.is_atomic() == scanned_is_atomic(part)
        assert [len(p.atoms()) for p in (singletons, copies, atom, joined)] == [300, 150, 1, 451]

    def test_cuts_are_the_segment_prefixes(self):
        assert list(P("12.346.57.8")._cuts()) == [(1, 2), (3, 7), (4, 8)]
        assert list(P("17.235.4.68")._cuts()) == [(4, 8)]
        assert list(EMPTY_PARTITION._cuts()) == []
