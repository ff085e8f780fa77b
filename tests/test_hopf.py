import collections
import itertools
import json
import math
import re
from pathlib import Path

import pytest

from ncsym import (
    EMPTY_PARTITION,
    NCSymElement,
    SetPartition,
    TensorElement,
    antipode,
    antipode_direct,
    antipode_direct_terms,
    antipode_factored,
    antipode_oracle,
    atom_key,
    atomic_set_partitions,
    convolve,
    coproduct,
    counit,
    format_element,
    format_tensor,
    hall_primitive,
    hall_span_check,
    hopf,
    is_lyndon,
    leading_term,
    lyndon_atom_words,
    partition_key,
    primitive,
    primitive_space_dimension,
    reduced_coproduct,
    serialize,
    set_compositions,
    set_partitions,
)
from ncsym.hopf import (
    _ANTIPODE_METHODS,
    _code_order,
    _code_text,
    _decode,
    _encode,
    _hall_span,
    _primitive_anchored,
)
from ncsym.setparts import bell_numbers
from ncsym.words import hall_tree

P = SetPartition.parse
E = NCSymElement.from_partition

# Read only: the primitive-rank and antipode workloads' expected values.
PRIMITIVE_REFS = Path(__file__).parents[1] / "perfbench" / "refs" / "primitive_rank.json"
ANTIPODE_REFS = Path(__file__).parents[1] / "perfbench" / "refs" / "antipode.json"


def element(*pairs):
    return NCSymElement((P(text), coeff) for text, coeff in pairs)


def coproduct_by_block_combinations(x):
    """The coproduct by every ordered split of the blocks, standardized one
    by one: the body ``coproduct`` had before it split byte codes."""
    pairs = []
    for part, coeff in x.items():
        blocks = part.blocks
        for k in range(len(blocks) + 1):
            for left in itertools.combinations(blocks, k):
                right = tuple(b for b in blocks if b not in left)
                key = (SetPartition(left).standardize(), SetPartition(right).standardize())
                pairs.append((key, coeff))
    return TensorElement(pairs)


class TestElement:
    def test_zero_coefficients_dropped(self):
        assert element(("12", 1), ("12", -1)).is_zero()
        assert element(("12", 0)).is_zero()

    def test_equality_is_term_map_equality(self):
        assert element(("12", 2), ("1.2", -1)) == element(("1.2", -1), ("12", 2))
        assert element(("12", 2)) != element(("12", 3))

    def test_rejects_nonstandard_terms(self):
        with pytest.raises(ValueError):
            NCSymElement(((P("2.3"), 1),))

    def test_scalar_arithmetic(self):
        x = element(("12", 1), ("1.2", -2))
        assert 3 * x == element(("12", 3), ("1.2", -6))
        assert x - x == NCSymElement.zero()
        assert -x == element(("12", -1), ("1.2", 2))

    def test_no_zero_stored_where_terms_cancel(self):
        # ``_wrap`` scans nothing, so every caller that can make a zero drops
        # it first: a scalar 0, a sum, a coproduct's cancelled splits.
        x = E(P("13.2")) - E(P("12.3"))
        assert (x * 0)._terms == {} and (0 * x)._terms == {} and (x - x)._terms == {}
        # (12)⊗(1) and (1)⊗(12) come from both terms and cancel, leaving the
        # unit legs alone.
        assert len(coproduct(x)._terms) == 4 and 0 not in coproduct(x)._terms.values()
        assert reduced_coproduct(x)._terms == {}

    def test_homogeneity(self):
        assert element(("12", 1), ("1.2", 4)).is_homogeneous()
        assert not element(("1", 1), ("12", 1)).is_homogeneous()
        assert NCSymElement.zero().is_homogeneous()


def singletons(n):
    return SetPartition([(i,) for i in range(1, n + 1)])


class TestCodeKeys:
    """Elements are keyed by restricted growth strings inside; partitions are
    made only where they leave."""

    def test_round_trip_past_255_blocks(self):
        for n in (255, 256, 300):
            part = singletons(n)
            code = _encode(part)
            assert isinstance(code, bytes if n <= 255 else tuple)
            assert list(code) == list(range(n)) and _decode(code) == part
        mixed = SetPartition([(1, 301)] + [(i,) for i in range(2, 301)])
        code = _encode(mixed)
        assert isinstance(code, tuple) and code[0] == code[-1] == 0
        assert _decode(code) == mixed

    def test_constructed_and_computed_elements_agree(self):
        computed = [
            antipode(E(P("13.2.4"))),
            primitive(P("13.2")),
            E(P("12")) * E(P("1")),
            E(singletons(200)) * E(singletons(100)),
        ]
        for x in computed:
            built = NCSymElement(x.items())
            assert x == built and hash(x) == hash(built)
        t = coproduct(E(P("13.2.4")))
        built = TensorElement(t.items())
        assert t == built and hash(t) == hash(built)

    def test_items_support_and_coefficient(self):
        s = antipode_factored(P("13.2.4"))
        want = [(P("1.23.4"), -1), (P("1.24.3"), 1), (P("1.2.34"), -1)]  # extended-form order
        assert s.items() == want
        assert s.support() == [part for part, _ in want]
        assert all(type(part) is SetPartition for part in s.support())
        for part, coeff in want:
            assert s.coefficient(part) == coeff
        assert s.coefficient(P("1.2.3.4")) == 0
        assert s.coefficient(P("2.3")) == 0  # not standard
        assert s.coefficient("1.24.3") == 0
        assert NCSymElement.unit().coefficient(EMPTY_PARTITION) == 1
        assert NCSymElement.unit().coefficient(b"") == 0
        with pytest.raises(TypeError):
            s.coefficient([1])
        t = coproduct(E(P("1")))
        assert t.items() == [((EMPTY_PARTITION, P("1")), 1), ((P("1"), EMPTY_PARTITION), 1)]
        assert t.coefficient((P("1"), EMPTY_PARTITION)) == 1
        assert t.coefficient((P("2"), EMPTY_PARTITION)) == 0
        assert t.coefficient((bytes((0,)), b"")) == 0
        assert t.coefficient(P("1")) == 0

    def test_product_is_associative_across_255_blocks(self):
        for na, nb, nc in ((250, 4, 3), (254, 1, 3), (1, 254, 1), (100, 100, 100)):
            a = E(singletons(na)) - 2 * E(P("1"))
            b = E(P("13.2")) + 3 * E(singletons(nb))
            c = E(singletons(nc))
            assert (a * b) * c == a * (b * c)
        a, b, c = singletons(250), singletons(4), P("13.2")
        assert E(a) * E(b) * E(c) == E(a.concat(b).concat(c))

    def test_arithmetic_and_text_on_300_singletons(self):
        part = singletons(300)
        x = E(part)
        assert str(x) == part.format()
        assert (x + x).items() == [(part, 2)] and x - x == NCSymElement.zero()
        assert x * E(P("1")) == E(singletons(301)) == E(P("1")) * x
        assert antipode(x) == x and antipode(x * E(P("1"))) == -E(singletons(301))
        assert antipode(x * E(P("13.2"))) == antipode(E(P("13.2"))) * x
        assert str(-x) == f"-({part.format()})"

    def test_split_entries_follow_the_label_bits(self):
        # Entry i of _all_splits keeps label l exactly when bit (r - 1 - l)
        # of i is set: coproduct pairs i with its mirror 2^r - 1 - i, and
        # first_part_sum reads the sets holding label 0 as the second half.
        parts = [part for n in range(7) for part in set_partitions(n)]
        parts += [P("1,12.2.3.4.5.6.7.8.9.10.11"), P("1,14.2,11.3.4.5.6.7.8.9.10.12.13")]
        for part in parts:
            r = part.length
            got = hopf._all_splits(_encode(part))
            assert len(got) == 2**r
            for i, split in enumerate(got):
                kept = [block for l, block in enumerate(part.blocks) if i >> (r - 1 - l) & 1]
                assert split == _encode(SetPartition(kept).standardize())

    def test_split_index_counts_the_blocks(self):
        # The kernel's sums shift by each head's block count, read off the
        # split index: entry i keeps exactly i.bit_count() labels.
        for part in (part for n in range(8) for part in set_partitions(n)):
            for i, split in enumerate(hopf._all_splits(_encode(part))):
                assert hopf._blocks(split) == i.bit_count(), (part, i)

    def test_code_keys_match_the_partition_keys(self):
        # SetPartition.sort_key and partition_key referee the keys built on
        # codes: every code through weight 7, extended forms past weight 9
        # ("10" sorts before "2"; singletons end in ","), and a tuple code.
        parts = [part for n in range(8) for part in set_partitions(n)]
        parts += [singletons(n) for n in (9, 10, 11, 12)]
        parts += [P("1,10.2.3.4.5.6.7.8.9"), P("1,10.2,3,4,5,6,7,8,9"), singletons(300)]
        parts.append(SetPartition([(1, 2)] + [(i,) for i in range(3, 302)]))
        for part in parts:
            code = _encode(part)
            assert _code_text(code) == part.sort_key(), part
            assert _code_order(code) == partition_key(part), part
        assert _code_text(_encode(singletons(10))).endswith("9.10,")
        assert isinstance(_encode(parts[-1]), tuple) and len(parts[-1].blocks) == 300

    @pytest.mark.parametrize(
        "call",
        [
            lambda: format_element(primitive(P("16.27.3.4.5"))),
            lambda: format_tensor(coproduct(E(P("13.2.45")) + E(P("12.3")))),
            lambda: lyndon_atom_words(5),
        ],
    )
    def test_each_atom_text_built_once_per_call(self, monkeypatch, call):
        # The atom order keys read each distinct atom's text once per call;
        # a second call builds them again, so nothing outlives the call.
        texts = collections.Counter()
        text = hopf._code_text

        def counted(code):
            texts[code] += 1
            return text(code)

        monkeypatch.setattr(hopf, "_code_text", counted)
        call()
        assert texts and set(texts.values()) == {1}
        assert all(hopf._code_atoms(code) == [code] for code in texts)
        call()
        assert set(texts.values()) == {2}

    def test_no_output_partition_built_before_items(self, monkeypatch):
        multi_atom, nine_blocks = E(P("13.2.4.57.6")), E(P("1.2.3.4.5.6.7.8.9"))
        built = []
        trusted = SetPartition._of.__func__

        def counted(cls, groups):
            built.append(groups)
            return trusted(cls, groups)

        monkeypatch.setattr(SetPartition, "_of", classmethod(counted))
        s, t = antipode(multi_atom), coproduct(nine_blocks)
        assert len(s._terms) == 9 and len(t._terms) == 10
        # The default route runs on codes from the element to its kernel: no
        # input term, atom or output term is built.
        assert built == []
        s.items()
        t.items()
        assert len(built) == 9 + 10


class TestProduct:
    def test_basis_products(self):
        assert E(P("12")) * E(P("1")) == E(P("12.3"))
        assert E(P("13.2")) * E(P("1")) == E(P("13.2.4"))

    def test_unit_laws(self):
        x = element(("12", 2), ("1.2", -1))
        assert NCSymElement.unit() * x == x == x * NCSymElement.unit()

    def test_bilinearity(self):
        x = element(("1", 1), ("12", 1))
        y = element(("1", 2))
        assert x * y == element(("1.2", 2), ("12.3", 2))


class TestCoproduct:
    def test_single_block(self):
        got = coproduct(E(P("1")))
        want = TensorElement(
            (((P("1"), EMPTY_PARTITION), 1), ((EMPTY_PARTITION, P("1")), 1))
        )
        assert got == want

    def test_hand_expansion(self):
        got = coproduct(E(P("12.3")))
        want = TensorElement(
            (
                ((P("12.3"), EMPTY_PARTITION), 1),
                ((P("12"), P("1")), 1),
                ((P("1"), P("12")), 1),
                ((EMPTY_PARTITION, P("12.3")), 1),
            )
        )
        assert got == want

    def test_unit(self):
        assert coproduct(NCSymElement.unit()) == TensorElement.pure(
            EMPTY_PARTITION, EMPTY_PARTITION
        )

    def test_equals_block_combinations(self):
        for n in range(7):
            for part in set_partitions(n):
                assert coproduct(E(part)) == coproduct_by_block_combinations(E(part))

    def test_multi_term_element_cancels(self):
        x = E(P("13.2")) - E(P("12.3")) + 2 * E(P("1"))
        got = coproduct(x)
        assert got == coproduct_by_block_combinations(x)
        # (12)⊗(1) and (1)⊗(12) come from both 13.2 and 12.3 and cancel.
        assert got.coefficient((P("12"), P("1"))) == 0
        assert len(got.items()) == 6

    def test_twelve_blocks(self):
        part = P("1,10.2,5.3.4,7.6,15.8.9.11.12,16.13.14.17")
        assert part.length == 12
        assert coproduct(E(part)) == coproduct_by_block_combinations(E(part))

    def test_refuses_more_than_255_blocks(self):
        singletons = SetPartition([(i,) for i in range(1, 257)])
        message = r"^coproduct of 256 blocks: predicted 2\^256 > 2097152 splits \(limit 1000000\)$"
        with pytest.raises(ValueError, match=message):
            coproduct(E(singletons))

    def test_term_count_is_two_to_the_length(self):
        for text in ("1", "12.3", "13.2.4", "1.2.3.4"):
            part = P(text)
            assert len(coproduct(E(part)).items()) <= 2 ** part.length
            total = sum(c for _, c in coproduct(E(part)).items())
            assert total == 2 ** part.length


class TestCounit:
    def test_values(self):
        assert counit(NCSymElement.unit()) == 1
        assert counit(E(P("12.3"))) == 0
        assert counit(3 * NCSymElement.unit() - 2 * E(P("1"))) == 3


def cancellation_free_antipode(part):
    """The antipode by the cancellation-free formula: (-1)^k p_gamma(A) over
    the set compositions gamma = (K_1, ..., K_k) of the block indices whose
    every std(A|K_i) is atomic and whose every part's largest element exceeds
    the next part's smallest one."""
    blocks = part.blocks
    terms = []
    for gamma in set_compositions(part.length):
        pieces = [part.sub_partition(k).standardize() for k in gamma.parts]
        spans = [
            (min(blocks[i - 1][0] for i in k), max(blocks[i - 1][-1] for i in k))
            for k in gamma.parts
        ]
        if all(piece.is_atomic() for piece in pieces) and all(
            high > low for (_, high), (low, _) in zip(spans, spans[1:])
        ):
            terms.append((gamma.evaluate(part), (-1) ** gamma.length))
    return NCSymElement(terms)


class TestAntipode:
    def test_cancellation_to_single_term(self):
        assert antipode_direct(P("12.3")) == element(("1.23", 1))

    def test_single_element(self):
        assert antipode_direct(P("1")) == element(("1", -1))

    def test_factored_three_terms(self):
        want = element(("1.24.3", 1), ("1.23.4", -1), ("1.2.34", -1))
        assert antipode_factored(P("13.2.4")) == want
        assert antipode_direct(P("13.2.4")) == want

    def test_uncombined_term_count(self):
        assert sum(1 for _ in antipode_direct_terms(P("14.2.3"))) == 13

    def test_combined_l1_norm(self):
        s = antipode_direct(P("14.2.3"))
        assert sum(abs(c) for _, c in s.items()) == 9

    def test_factored_equals_direct_on_atomic(self):
        for text in ("14.2.3", "17.235.4.68", "1"):
            assert antipode_factored(P(text)) == antipode_direct(P(text))

    def test_default_route_at_weights_five_and_six(self):
        for part in set_partitions(5):
            assert antipode_factored(part) == antipode_direct(part)
        for part in set_partitions(6):
            assert antipode_factored(part) == antipode_oracle(part)

    def test_cancellation_free_formula(self):
        for n in range(7):
            for part in set_partitions(n):
                assert cancellation_free_antipode(part) == antipode(E(part)), part

    def test_growth_string_round_trip(self):
        assert _encode(P("14.2.3")) == bytes((0, 1, 2, 0))
        for n in range(7):
            for part in set_partitions(n):
                code = _encode(part)
                assert len(code) == n and _decode(code) == part

    def test_default_route_on_atoms(self):
        for n in range(1, 7):
            for atom in atomic_set_partitions(n):
                assert antipode_factored(atom) == antipode_direct(atom)
        for atom in atomic_set_partitions(7):
            assert antipode_factored(atom) == antipode_oracle(atom)

    def test_wide_atoms_refereed_at_weight_eight(self):
        # Every atom of weight 8 with at least 5 blocks: its heads' splits and
        # atoms are read off its one table, and the oracle referees the
        # antipode; the primitive has a zero reduced coproduct.
        atoms = [atom for atom in atomic_set_partitions(8) if atom.length >= 5]
        assert len(atoms) == 362
        for atom in atoms:
            assert antipode_factored(atom) == antipode_oracle(atom), atom
            assert reduced_coproduct(primitive(atom)).is_zero(), atom

    def test_kernel_refereed_at_weight_seven(self):
        # The kernel sums each atom's antipode by its last part and each
        # primitive by its first: the oracle and the anchored sum referee
        # both on every partition of weight 7, and the oracle an element
        # whose terms share sub-codes in one kernel.
        parts = list(set_partitions(7))
        assert len(parts) == 877
        for part in parts:
            assert antipode_factored(part) == antipode_oracle(part), part
            assert primitive(part) == _primitive_anchored(part), part
        x = E(P("15.2.37.4.6")) - 2 * E(P("13.2.4.57.6")) + 3 * E(P("1234567"))
        x += E(P("1.2.3.4.5.6.7"))
        assert len(antipode(x)._terms) > 4 and antipode(x) == antipode(x, "oracle")

    def test_long_growth_string_with_few_labels(self):
        odd, even = tuple(range(1, 300, 2)), tuple(range(2, 301, 2))
        atom = SetPartition([odd, even])
        assert atom.is_atomic() and len(_encode(atom)) == 300
        assert antipode_factored(atom) == antipode_oracle(atom)

    def test_ten_block_crossing_chain(self):
        chain = P("1,3.2,5.4,7.6,9.8,11.10,13.12,15.14,17.16,19.18,20")
        assert chain.is_atomic() and chain.length == 10
        s = antipode_factored(chain)
        assert len(s.items()) == 512
        assert s == antipode_oracle(chain)

    def test_many_atoms_past_the_block_cap(self):
        singletons = P("1.2.3.4.5.6.7.8.9.10.11,")
        assert singletons.length > 10
        assert antipode(E(singletons)) == -E(singletons)

    def test_default_route_caps_each_atom(self):
        wide_atom = P("1,14.2.3.4.5.6.7.8.9.10.11.12.13")
        assert wide_atom.is_atomic() and wide_atom.length == 13
        message = r"^antipode of an atom of 13 blocks: predicted 3\^13 = 1594323 splits"
        with pytest.raises(ValueError, match=message):
            antipode_factored(wide_atom)

    def test_atoms_of_eleven_and_twelve_blocks(self):
        # 11 and 12 blocks: 3^12 splits are still inside the work limit.
        for text in ("1,12.2.3.4.5.6.7.8.9.10.11", "1,14.2,11.3.4.5.6.7.8.9.10.12.13"):
            atom = P(text)
            assert atom.is_atomic() and atom.length > 10
            assert antipode_factored(atom) == antipode_oracle(atom)

    def test_product_crossing_255_blocks(self):
        atom = E(P("13.2.4"))
        assert antipode(E(singletons(254)) * atom) == antipode(atom) * E(singletons(254))

    def test_wide_atom_in_a_later_term(self):
        wide_atom = P("1,14.2.3.4.5.6.7.8.9.10.11.12.13")
        with pytest.raises(ValueError) as refused:
            antipode_factored(wide_atom)
        x = E(P("12.3")) + E(P("1.2")) * E(wide_atom)
        assert list(x._terms)[1] == _encode(P("1.2").concat(wide_atom))
        with pytest.raises(ValueError) as again:
            antipode(x)
        assert str(again.value) == str(refused.value)

    def test_each_code_cut_into_atoms_once(self, monkeypatch):
        # The kernel cuts only the element's own codes, and splits each
        # distinct atom of four or more blocks it sums once: every head's
        # splits and atoms are read off that atom's table by label mask.  A
        # two- or three-block atom is answered in closed form, with no split.
        cuts, splits = collections.Counter(), collections.Counter()
        cut, split = hopf._code_atoms, hopf._all_splits

        def counted_cut(code):
            cuts[code] += 1
            return cut(code)

        def counted_split(code):
            splits[code] += 1
            return split(code)

        x = E(P("13.2.4.57.6")) - 3 * E(P("13.2")) + 2 * NCSymElement.unit()
        atom = P("15.2.38.4.6.7")
        # The referees first: the oracle takes its splits from _all_splits.
        want = antipode(x, "oracle"), antipode_oracle(atom), _primitive_anchored(atom)
        monkeypatch.setattr(hopf, "_code_atoms", counted_cut)
        monkeypatch.setattr(hopf, "_all_splits", counted_split)
        assert antipode(x) == want[0]
        assert cuts == {_encode(P("13.2.4.57.6")): 1, _encode(P("13.2")): 1}
        assert not splits
        for call in (lambda: antipode(E(atom)), lambda: antipode_factored(atom)):
            cuts.clear(), splits.clear()
            assert call() == want[1]
            assert cuts == splits == {_encode(atom): 1}
        cuts.clear(), splits.clear()
        assert primitive(atom) == want[2]
        assert not cuts and splits == {_encode(atom): 1}

    def test_one_block_answered_without_a_split(self, monkeypatch):
        # p_[n] is primitive, so S(p_[n]) = -p_[n]; the kernel neither cuts
        # nor splits a one-block code.
        def unreached(code):
            raise AssertionError(f"split {code!r}")

        monkeypatch.setattr(hopf, "_all_splits", unreached)
        for n in (1, 2, 9, 10, 12):
            x = E(SetPartition([tuple(range(1, n + 1))]))
            assert antipode(x) == -x and antipode_factored(x.support()[0]) == -x

    def test_one_block_atom_after_255_blocks(self):
        # Tuple codes: the one-block atom comes after 300 singletons, and a
        # 300-block atom whose first block reaches the end is one atom.
        block = E(P("123"))
        x = E(singletons(300)) * block
        assert isinstance(list(x._terms)[0], tuple)
        assert antipode(x) == -(block * E(singletons(300)))
        assert antipode(block * E(singletons(300))) == -(E(singletons(300)) * block)
        mixed = SetPartition([(1, 301)] + [(i,) for i in range(2, 301)])
        code = _encode(mixed)
        assert isinstance(code, tuple) and hopf._code_atoms(code) == [code]
        assert mixed.atoms() == (mixed,)

    def test_two_block_atoms_by_their_one_block_heads(self):
        # Both heads of a two-block atom are one block, added in line: S(A) =
        # -A + p_a·p_b + p_b·p_a, for blocks of sizes a and b.
        atoms = [a for n in range(2, 9) for a in atomic_set_partitions(n) if a.length == 2]
        assert len(atoms) == 219
        for atom in atoms:
            a, b = (E(SetPartition([tuple(range(1, len(block) + 1))])) for block in atom.blocks)
            assert antipode(E(atom)) == antipode_direct(atom) == -E(atom) + a * b + b * a

    def test_two_block_atoms_answered_without_a_split(self, monkeypatch):
        # Two- and three-block atoms are in closed form: S(A) = -A + p_a·p_b
        # + p_b·p_a, and the six-term last-part sum of _three_blocks.  Neither
        # needs a table, alone or beside other atoms; a four-block atom is
        # still split, once.
        atoms = [a for n in range(2, 9) for a in atomic_set_partitions(n) if a.length in (2, 3)]
        assert len(atoms) == 219 + 1007
        want = {atom: antipode_direct(atom) for atom in atoms}
        split, splits = hopf._all_splits, collections.Counter()

        def unreached(code):
            raise AssertionError(f"split {code!r}")

        monkeypatch.setattr(hopf, "_all_splits", unreached)
        one = E(P("1"))
        for atom in atoms:
            assert antipode(E(atom)) == antipode_factored(atom) == want[atom], atom
            assert antipode(E(atom) * one) == -one * want[atom], atom
        x = E(P("13.2")) * one * E(P("124.3"))
        assert antipode(x) == want[P("124.3")] * -one * want[P("13.2")]
        x = E(P("1346.27.5")) * one * E(P("167.234.5"))
        assert antipode(x) == want[P("167.234.5")] * -one * want[P("1346.27.5")]

        def counted(code):
            splits[code] += 1
            return split(code)

        monkeypatch.setattr(hopf, "_all_splits", counted)
        wide = P("15.2.3.4")
        x = E(wide) * E(P("1346.27.5"))
        assert antipode(x) == want[P("1346.27.5")] * antipode_direct(wide)
        assert splits == {_encode(wide): 1}

    @pytest.mark.parametrize("k", [1, 2, 3, 6, 11, 12, 300])
    def test_one_block_atoms_answered_reversed(self, k, monkeypatch):
        # Every atom one block: S is (-1)^k times the blocks in reverse order,
        # a tuple code past 255 blocks.  Such a code's labels never decrease,
        # so it is answered with no cut scan and no split, alone or beside
        # another such term.
        def unreached(code):
            raise AssertionError(f"reached with {code!r}")

        blocks = [E(SetPartition([tuple(range(1, 2 + i % 3))])) for i in range(k)]
        x, y = math.prod(blocks, start=NCSymElement.unit()), E(singletons(k))
        expected = (-1) ** k * math.prod(reversed(blocks), start=NCSymElement.unit())
        assert isinstance(next(iter(x._terms)), tuple) == (k > 255)
        monkeypatch.setattr(hopf, "_code_atoms", unreached)
        monkeypatch.setattr(hopf, "_all_splits", unreached)
        assert antipode(x) == antipode_factored(x.support()[0]) == expected
        assert antipode(x - 2 * y) == expected - 2 * (-1) ** k * y
        if k <= 6:
            assert antipode(x, "direct") == expected

    def test_kernel_dicts_hold_no_zero(self):
        # Elements take the kernel's dicts unscanned.
        memo = hopf._kernel()
        for n in range(1, 7):
            for part in set_partitions(n):
                code = _encode(part)
                assert 0 not in hopf._antipode_of(memo, code).values()
                assert 0 not in hopf._table_sum(memo, code, True).values()

    def test_scalar_multiples(self):
        for x in (E(P("1")), E(P("123")), E(P("13.2.4")), E(P("13.2")) * E(P("12"))):
            assert antipode(3 * x) == 3 * antipode(x)
            assert antipode(-x) == -antipode(x)

    def test_each_call_returns_its_own_terms(self):
        # A single term's antipode takes over the kernel's dict, which no
        # later call shares.
        for x in (NCSymElement.unit(), E(P("1")), E(P("123")), E(P("13.2.4")), E(P("1.2"))):
            first, second = antipode(x), antipode(x)
            assert first == second and first._terms is not second._terms
            first, second = antipode_factored(x.support()[0]), antipode_factored(x.support()[0])
            assert first == second and first._terms is not second._terms

    def test_perfbench_references_recomputed(self):
        refs = json.loads(ANTIPODE_REFS.read_text(encoding="utf-8"))
        assert len(refs) == 23
        for key, value in refs.items():
            got = antipode(E(P(key)))
            assert sorted([p.format("extended"), c] for p, c in got.items()) == value, key

    def test_oracle_small_values(self):
        assert antipode_oracle(P("1")) == element(("1", -1))
        assert antipode_oracle(P("12.3")) == element(("1.23", 1))

    def test_oracle_cache_clears(self):
        antipode_oracle(P("12.3"))
        antipode_oracle.cache_clear()
        assert antipode_oracle.cache_info().currsize == 0
        assert antipode_oracle(P("12.3")) == element(("1.23", 1))

    def test_oracle_from_a_cleared_cache_equals_the_default_route(self):
        antipode_oracle.cache_clear()
        for part in (part for n in range(7) for part in set_partitions(n)):
            assert antipode_oracle(part) == antipode_factored(part)

    def test_methods_run_through_the_public_routes(self, monkeypatch):
        # Rebinding a route in the table, as a span tracer does, reaches
        # every element-level call of its method.
        assert _ANTIPODE_METHODS == {
            "direct": antipode_direct,
            "factored": antipode_factored,
            "oracle": antipode_oracle,
        }
        x = E(P("13.2")) + E(P("1"))
        expected = antipode(x)
        seen = []
        for name, route in list(_ANTIPODE_METHODS.items()):
            monkeypatch.setitem(
                _ANTIPODE_METHODS, name, lambda part, r=route: seen.append(part) or r(part)
            )
        for method in ("direct", "factored", "oracle"):
            seen.clear()
            assert antipode(x, method) == expected
            assert sorted(p.format() for p in seen) == ["1", "13.2"]

    def test_methods_agree_through_weight_four(self):
        for n in range(0, 5):
            for part in set_partitions(n):
                x = E(part)
                assert (
                    antipode(x, "direct")
                    == antipode(x, "factored")
                    == antipode(x, "oracle")
                )

    def test_wrapper_handles_unit_and_linearity(self):
        for method in ("direct", "factored", "oracle"):
            assert antipode(NCSymElement.unit(), method) == NCSymElement.unit()
        x = 2 * E(P("12.3")) - E(P("1"))
        assert antipode(x) == 2 * antipode_direct(P("12.3")) - antipode_direct(P("1"))

    def test_every_route_maps_empty_to_unit(self):
        for route in (antipode_direct, antipode_factored, antipode_oracle):
            assert route(EMPTY_PARTITION) == NCSymElement.unit(), route.__name__

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            antipode(E(P("1")), "fast")

    def test_parts_cap(self):
        nine = SetPartition([(i,) for i in range(1, 10)])
        message = (
            r"^antipode_direct of 9 blocks: predicted Fubini\(9\) = 7087261 compositions "
            r"\(limit 1000000\)$"
        )
        with pytest.raises(ValueError, match=message):
            antipode_direct(nine)
        with pytest.raises(ValueError, match=message):
            antipode_direct_terms(nine)

    def test_convolution_identity_small(self):
        identity = NCSymElement.from_partition
        S = lambda part: antipode(E(part))
        for n in range(0, 4):
            for part in set_partitions(n):
                want = NCSymElement.unit() if n == 0 else NCSymElement.zero()
                assert convolve(S, identity, part) == want
                assert convolve(identity, S, part) == want


class TestPrimitive:
    def test_single_block(self):
        assert primitive(P("1")) == element(("1", 1))
        assert primitive(P("12")) == element(("12", 1))

    def test_atomic_two_blocks(self):
        assert primitive(P("13.2")) == element(("13.2", 1), ("12.3", -1))

    def test_non_atomic_vanishes(self):
        assert primitive(P("12.3")).is_zero()
        assert primitive(P("1.2")).is_zero()

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            primitive(EMPTY_PARTITION)

    def test_first_parts_equal_the_anchored_sum(self):
        # primitive(A) = sum over K holding block 1 of std(A|K) * S(std(A|rest)),
        # refereed by the anchored-composition sum on every standard partition
        # of weight 1 to 6.
        parts = [part for n in range(1, 7) for part in set_partitions(n)]
        assert len(parts) == 278
        for part in parts:
            assert primitive(part) == _primitive_anchored(part)

    def test_primitivity(self):
        assert reduced_coproduct(primitive(P("13.2"))).is_zero()
        assert reduced_coproduct(primitive(P("123"))).is_zero()

    def test_atom_of_eleven_blocks(self):
        atom = P("1,12.2.3.4.5.6.7.8.9.10.11")
        assert atom.is_atomic() and atom.length == 11
        p = primitive(atom)
        assert reduced_coproduct(p).is_zero()
        assert leading_term(p) == (atom, 1)


@pytest.mark.parametrize(
    "route",
    [
        antipode_direct,
        antipode_direct_terms,
        antipode_factored,
        antipode_oracle,
        primitive,
        _primitive_anchored,
    ],
    ids=lambda route: route.__name__,
)
def test_every_route_checks_its_partition_as_element_keys_are(route):
    with pytest.raises(TypeError) as refused:
        route("12")
    assert str(refused.value) == "term keys must be SetPartition, got str"
    with pytest.raises(ValueError) as refused:
        route(P("2.3"))
    message = "element terms must be standard partitions, got SetPartition('2.3')"
    assert str(refused.value) == message
    if route in (primitive, _primitive_anchored):
        with pytest.raises(ValueError) as refused:
            route(EMPTY_PARTITION)
        assert str(refused.value) == "primitive is undefined on the empty partition"


@pytest.mark.parametrize("part", [P("1.3"), P("12.4"), SetPartition([[1], [10**9]])], ids=str)
def test_non_standard_keys_refused_by_the_encoding(part):
    # The encoding is the input check: an element past the weight, in a
    # later block or far past it, is refused with the standard-partition
    # message, and no IndexError escapes.
    message = f"element terms must be standard partitions, got {part!r}"
    calls = [
        lambda: NCSymElement.from_partition(part),
        lambda: NCSymElement({part: 1}),
        lambda: TensorElement.pure(part, P("1")),
        lambda: TensorElement.pure(P("1"), part),
        lambda: antipode_factored(part),
        lambda: antipode_oracle(part),
        lambda: primitive(part),
    ]
    for call in calls:
        with pytest.raises(ValueError) as refused:
            call()
        assert str(refused.value) == message
    assert E(P("12")).coefficient(part) == 0
    assert TensorElement.pure(P("1"), P("1")).coefficient((part, P("1"))) == 0


class TestReducedCoproduct:
    def test_hand_value(self):
        got = reduced_coproduct(E(P("1.2")))
        assert got == TensorElement.pure(P("1"), P("1"), 2)

    def test_single_block_is_primitive(self):
        assert reduced_coproduct(E(P("12"))).is_zero()

    def test_requires_counit_zero(self):
        with pytest.raises(ValueError):
            reduced_coproduct(NCSymElement.unit())

    def test_deleting_the_legs_matches_the_formula(self):
        # reduced_coproduct(x) = coproduct(x) - x⊗1 - 1⊗x on every c1·A + c2·B,
        # the legs built here by tensor arithmetic; refused when A (the first
        # in enumeration order) is the empty partition.
        parts = [part for n in range(4) for part in set_partitions(n)]
        coeffs = (-2, -1, 1, 3)
        for a, b in itertools.combinations(parts, 2):
            for c1, c2 in itertools.product(coeffs, repeat=2):
                x = NCSymElement({a: c1, b: c2})
                if not a.weight:
                    with pytest.raises(ValueError, match="reduced coproduct needs counit zero"):
                        reduced_coproduct(x)
                    continue
                x_unit = TensorElement(((p, EMPTY_PARTITION), c) for p, c in x.items())
                assert reduced_coproduct(x) == coproduct(x) - x_unit - x_unit.twist()


class TestAtomOrder:
    def test_heavier_atoms_first(self):
        assert atom_key(P("12")) < atom_key(P("1"))
        assert atom_key(P("123")) < atom_key(P("12"))

    def test_partition_key_orders_terms_of_factored_antipode(self):
        parts = [P("1.24.3"), P("1.23.4"), P("1.2.34")]
        assert sorted(parts, key=partition_key) == parts

    def test_leading_terms_of_primitives(self):
        for n in range(1, 6):
            for part in set_partitions(n):
                if part.is_atomic():
                    assert leading_term(primitive(part)) == (part, 1)

    def test_leading_term_rejects_zero(self):
        with pytest.raises(ValueError):
            leading_term(NCSymElement.zero())


def recursive_lyndon_atom_words(total_weight):
    """The recursive atom-word builder ``lyndon_atom_words`` replaced, kept as
    its referee: every word of atoms of the weight, kept when Lyndon."""
    atoms_by_weight = {w: list(atomic_set_partitions(w)) for w in range(1, total_weight + 1)}
    found = []

    def extend(prefix, remaining):
        if remaining == 0:
            if is_lyndon(prefix, key=atom_key):
                found.append(tuple(prefix))
            return
        for w in range(1, remaining + 1):
            for atom in atoms_by_weight[w]:
                prefix.append(atom)
                extend(prefix, remaining - w)
                prefix.pop()

    extend([], total_weight)
    found.sort(key=lambda word: tuple(atom_key(a) for a in word))
    return found


def leaf_by_leaf(tree):
    """The Hall tree's element with a fresh public ``primitive`` per leaf:
    the referee of the shared source of primitives."""
    if isinstance(tree, SetPartition):
        return primitive(tree)
    left, right = leaf_by_leaf(tree[0]), leaf_by_leaf(tree[1])
    return left * right - right * left


class TestHallBasis:
    def test_single_atom(self):
        assert hall_primitive([P("13.2")]) == primitive(P("13.2"))

    def test_two_atom_bracket(self):
        p12, p1 = primitive(P("12")), primitive(P("1"))
        assert hall_primitive([P("12"), P("1")]) == p12 * p1 - p1 * p12

    def test_rejects_non_lyndon(self):
        with pytest.raises(ValueError):
            hall_primitive([P("1"), P("12")])
        with pytest.raises(ValueError):
            hall_primitive([P("1"), P("1")])

    def test_rejects_non_atomic(self):
        with pytest.raises(ValueError):
            hall_primitive([P("1.2")])

    def test_each_letter_keyed_once_per_call(self, monkeypatch):
        keyed = []

        def counted(part):
            keyed.append(part)
            return atom_key(part)

        monkeypatch.setattr(hopf, "atom_key", counted)
        word = (P("123"), P("12"), P("12"), P("1"), P("12"), P("1"))
        assert is_lyndon(word, key=atom_key)
        for _ in range(2):
            keyed.clear()
            hall_primitive(word)
            assert sorted(keyed, key=atom_key) == [P("123"), P("12"), P("1")]

    def test_word_tested_for_lyndon_once(self, monkeypatch):
        tested = []

        def counted(word, key=None):
            tested.append(word)
            return is_lyndon(word, key)

        # hall_primitive tests its word once, with its own message, and the
        # Hall span trusts its words; no level of the bracketing tests again.
        monkeypatch.setattr(hopf, "is_lyndon", counted)
        monkeypatch.setattr("ncsym.words.is_lyndon", counted)
        word = (P("123"), P("12"), P("12"), P("1"), P("12"), P("1"))
        hall_primitive(word)
        assert tested == [word]
        tested.clear()
        assert _hall_span(4, [(P("12"), P("1"), P("1"))], 1)
        assert tested == []

    def test_one_kernel_per_call_and_each_letter_once(self, monkeypatch):
        words = [word for n in range(1, 7) for word in lyndon_atom_words(n)]
        want = [leaf_by_leaf(hall_tree(word, key=atom_key)) for word in words]
        kernels, letters = [], []
        build, table_sum = hopf._kernel, hopf._table_sum

        def counted():
            kernels.append(1)
            return build()

        def table_sum_counted(memo, code, first):
            if first:
                letters.append(code)
            return table_sum(memo, code, first)

        monkeypatch.setattr(hopf, "_kernel", counted)
        monkeypatch.setattr(hopf, "_table_sum", table_sum_counted)
        for word, value in zip(words, want):
            kernels.clear(), letters.clear()
            assert hall_primitive(word) == value, word
            assert len(kernels) == 1
            assert sorted(letters) == sorted(set(map(_encode, word)))

    def test_refuses_a_wide_letter_before_any_work(self, monkeypatch):
        wide_atom = P("1,14.2.3.4.5.6.7.8.9.10.11.12.13")
        with pytest.raises(ValueError) as refused:
            primitive(wide_atom)
        monkeypatch.setattr(hopf, "_kernel", None)
        with pytest.raises(ValueError) as again:
            hall_primitive([wide_atom, P("1")])
        assert str(again.value) == str(refused.value)

    def test_each_code_cut_into_atoms_once(self, monkeypatch):
        calls = collections.Counter()
        cut = hopf._code_atoms

        def counted(code):
            calls[code] += 1
            return cut(code)

        want = lyndon_atom_words(6)
        monkeypatch.setattr(hopf, "_code_atoms", counted)
        assert hopf._lyndon_atom_words(set_partitions(6)) == want
        assert len(calls) == bell_numbers(6)[6] and set(calls.values()) == {1}

    def test_word_prediction_bounds_its_terms(self):
        # A bracket [u, v] has at most 2|u||v| terms, so a word of k letters
        # has at most 2^(k-1)·Π|P(letter)|: the prediction hall_primitive
        # refuses on.
        words = [word for n in range(1, 8) for word in lyndon_atom_words(n)]
        assert len(words) == 793
        for word in words:
            bound = 2 ** (len(word) - 1) * math.prod(len(primitive(a)._terms) for a in word)
            assert len(hall_primitive(word)._terms) <= bound, word

    def test_outputs_are_primitive(self):
        for n in range(1, 5):
            for word in lyndon_atom_words(n):
                assert reduced_coproduct(hall_primitive(word)).is_zero()

    def test_lyndon_atom_word_counts(self):
        assert [len(lyndon_atom_words(n)) for n in range(1, 6)] == [1, 1, 3, 9, 34]

    def test_lyndon_atom_words_match_recursive_builder(self):
        for n in range(1, 8):
            assert lyndon_atom_words(n) == recursive_lyndon_atom_words(n), n

    def test_weights_reject_bool(self):
        for flag in (True, False):
            with pytest.raises(ValueError, match="total weight must be a positive integer"):
                lyndon_atom_words(flag)
            with pytest.raises(ValueError, match="weight must be a positive integer"):
                primitive_space_dimension(flag)

    def test_hall_span_refuses_wrong_inputs(self):
        words = lyndon_atom_words(4)
        dim = len(words)
        assert _hall_span(4, words, dim)
        assert not _hall_span(4, words + [words[0]], dim + 1)
        assert not _hall_span(4, words, dim + 1)
        assert not _hall_span(4, words, dim - 1)

    def test_hall_span_elements_match_leaf_by_leaf_expansion(self, monkeypatch):
        # The rows _hall_span ranks are its elements.
        ranked = []
        rank = hopf.integer_rank

        def recorded(rows):
            ranked.append(rows)
            return rank(rows)

        monkeypatch.setattr(hopf, "integer_rank", recorded)
        for n in range(1, 8):
            words = lyndon_atom_words(n)
            ranked.clear()
            assert _hall_span(n, words, len(words)), n
            [rows] = ranked
            want = [leaf_by_leaf(hall_tree(word, key=atom_key))._terms for word in words]
            assert rows == want, n

    def test_hall_span_check_builds_one_kernel_per_call(self, monkeypatch):
        kernels, build = [], hopf._kernel

        def counted():
            kernels.append(1)
            return build()

        monkeypatch.setattr(hopf, "_kernel", counted)
        for n in range(1, 7):
            kernels.clear()
            assert hall_span_check(n)
            assert len(kernels) == 1, n

    def test_hall_span_enumerates_nothing(self, monkeypatch):
        inputs = {n: (lyndon_atom_words(n), primitive_space_dimension(n)) for n in range(1, 6)}

        def no_enumeration(n):
            raise AssertionError("_hall_span enumerated partitions")

        monkeypatch.setattr(hopf, "set_partitions", no_enumeration)
        for n, (words, dim) in inputs.items():
            assert _hall_span(n, words, dim), n

    def test_dimensions(self):
        assert primitive_space_dimension(1) == 1
        assert primitive_space_dimension(2) == 1
        assert [primitive_space_dimension(n) for n in range(3, 6)] == [3, 9, 34]

    def test_spans(self):
        for n in range(1, 6):
            assert hall_span_check(n)

    def test_dimensions_are_the_free_counts(self):
        # NCSym is free on the atoms, so its primitive part is the free Lie
        # algebra on them: prod_n (1 - t^n)^(-p_n) = sum_n Bell(n) t^n
        # (Reutenauer, Free Lie Algebras, 1993).  Peel the factors off the
        # Bell series one weight at a time.
        top = 7
        series = bell_numbers(top)
        for n in range(1, top + 1):
            p_n = series[n]
            assert primitive_space_dimension(n) == p_n, n
            for _ in range(p_n):
                series = [c - (series[i - n] if i >= n else 0) for i, c in enumerate(series)]
        assert hall_span_check(top)

    def test_perfbench_references_recomputed(self):
        refs = json.loads(PRIMITIVE_REFS.read_text(encoding="utf-8"))
        routes = {
            "primitive_space_dimension": primitive_space_dimension,
            "lyndon_atom_words": lambda n: [
                [atom.format() for atom in word] for word in lyndon_atom_words(n)
            ],
            "hall_span_check": hall_span_check,
        }
        assert len(refs) == 3 * 6
        for key, value in refs.items():
            name, n = re.fullmatch(r"(\w+)\((\d+)\)", key).groups()
            assert routes[name](int(n)) == value, key


def label(part):
    return f"({part.format() or '∅'})"


def signed_text(terms, body=label):
    """The text forms' sign-joined layout of terms already in order."""
    text = " ".join(
        f"{'-' if c < 0 else '+'} {abs(c) if abs(c) != 1 else ''}{body(key)}" for key, c in terms
    )
    return text[2:] if text[0] == "+" else "-" + text[2:]


class TestFormatting:
    def test_order_across_weight_ten_and_mixed_weights(self):
        # Sorted on codes, the terms come out in the order the partition-level
        # keys give: the extended-form string for items, support and JSON,
        # partition_key for the text forms.
        a = P("1,10.2,3,4,5,6,7,8,9")
        s = antipode(E(a))
        mixed = s + 2 * E(singletons(10)) - E(P("1,10.2.3.4.5.6.7.8.9")) + E(P("13.2"))
        mixed += E(singletons(9)) * E(P("12")) - 3 * E(P("1")) + NCSymElement.unit()
        for x in (s, mixed):
            terms = [(_decode(code), c) for code, c in x._terms.items()]
            by_text = sorted(terms, key=lambda kc: kc[0].sort_key())
            assert x.items() == by_text and x.support() == [p for p, _ in by_text]
            obj = serialize.element_to_obj(x)
            assert [t["partition"] for t in obj["terms"]] == [
                serialize.partition_to_obj(p) for p, _ in by_text
            ]
            by_order = sorted(terms, key=lambda kc: partition_key(kc[0]))
            assert str(x) == format_element(x) == signed_text(by_order)
        for t in (coproduct(E(a)), coproduct(mixed)):
            terms = [((_decode(l), _decode(r)), c) for (l, r), c in t._terms.items()]
            by_text = sorted(terms, key=lambda kc: (kc[0][0].sort_key(), kc[0][1].sort_key()))
            assert t.items() == by_text and t.support() == [p for p, _ in by_text]
            obj = serialize.tensor_to_obj(t)
            assert [(u["left"], u["right"]) for u in obj["terms"]] == [
                (serialize.partition_to_obj(l), serialize.partition_to_obj(r))
                for (l, r), _ in by_text
            ]
            by_order = sorted(terms, key=lambda kc: tuple(map(partition_key, kc[0])))
            text = signed_text(by_order, lambda pair: f"{label(pair[0])}⊗{label(pair[1])}")
            assert str(t) == format_tensor(t) == text

    def test_bare_single_positive_term(self):
        assert format_element(element(("1.23", 1))) == "1.23"
        assert format_element(NCSymElement.unit()) == "∅"

    def test_signs_and_magnitudes(self):
        x = element(("14.2.3", -1), ("13.2.4", 2))
        assert format_element(x) == "-(14.2.3) + 2(13.2.4)"

    def test_zero(self):
        assert format_element(NCSymElement.zero()) == "0"
        assert format_tensor(TensorElement.zero()) == "0"

    def test_tensor(self):
        t = TensorElement.pure(P("1"), P("1"), 2)
        assert format_tensor(t) == "2(1)⊗(1)"
