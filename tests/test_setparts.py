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
        for n in range(0, 7):
            assert list(atomic_set_partitions(n)) == [
                p for p in set_partitions(n) if p.is_atomic()
            ]

    def test_size_validation(self):
        with pytest.raises(ValueError):
            list(set_partitions(-1))
