"""Trusted inside, strict at the boundary.

Internal results are built without re-sorting or re-checking, so each one
must already equal its rebuild through the public constructor; the public
entries must still reject bad data with their documented messages.
"""

import itertools
import re
import sys
from types import ModuleType

import pytest

import ncsym
from ncsym import (
    EMPTY_PARTITION,
    NCSymElement,
    NotationError,
    SetComposition,
    SetPartition,
    TensorElement,
    Word,
    anchored_compositions,
    antipode,
    atomic_set_partitions,
    compositions_of,
    coproduct,
    hopf,
    left_quasi_shuffle,
    pairing,
    quasi_shuffle,
    refinements,
    restriction_tensor_sum,
    serialize,
    set_compositions,
    set_partitions,
    verify,
)
from ncsym import cli, linalg, setparts, words
from ncsym.cli import main

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
    assert rebuilt == value and groups == getattr(rebuilt, attr) and hash(rebuilt) == hash(value)


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


class TestOneBodyPerFamily:
    """The three group types share one body and the two element types
    another; each type keeps its own name, text and equality."""

    @pytest.mark.parametrize(
        "value, text",
        [
            (SetPartition(), "SetPartition('∅')"),
            (P("1,10.2"), "SetPartition('1,10.2')"),
            (SetComposition(), "SetComposition('∅')"),
            (C("38|12"), "SetComposition('38|12')"),
            (Word(), "Word('∅')"),
            (W("12|2"), "Word('12|2')"),
            (NCSymElement.zero(), "NCSymElement<0>"),
            (NCSymElement.unit(), "NCSymElement<∅>"),
            (NCSymElement({P("12"): -1, P("1.2"): 3}), "NCSymElement<-(12) + 3(1.2)>"),
            (TensorElement.zero(), "TensorElement<0>"),
            (TensorElement.pure(P("1"), P("1"), 2), "TensorElement<2(1)⊗(1)>"),
        ],
    )
    def test_repr(self, value, text):
        assert repr(value) == text

    def test_types_with_equal_contents_differ(self):
        groups = ((1,),)
        for a, b in itertools.permutations(
            [SetPartition(groups), SetComposition(groups), Word(groups)], 2
        ):
            assert a != b and not a == b
        assert NCSymElement.zero() != TensorElement.zero()
        assert {SetPartition(groups): 1, SetComposition(groups): 2, Word(groups): 3}[Word(groups)] == 3

    def test_word_ground_merges_overlapping_letters(self):
        assert W("23|12|2").ground() == (1, 2, 3)
        assert Word().ground() == ()


def test_package_republishes_each_module_all():
    # Each public name is declared once, in its module's __all__, and the
    # package exports exactly those of the four modules it republishes.
    republished = (setparts, words, hopf, linalg)
    declared = [name for module in (*republished, verify, serialize, cli) for name in module.__all__]
    assert len(declared) == len(set(declared))
    public = {name: value for name, value in vars(ncsym).items() if not name.startswith("_")}
    modules = {name for name, value in public.items() if isinstance(value, ModuleType)}
    assert set(public) - modules == {name for module in republished for name in module.__all__}
    assert {"setparts", "words", "hopf", "linalg"} <= modules and ncsym.__version__
    for module in republished:
        for name in module.__all__:
            assert public[name] is vars(module)[name], name
            assert getattr(public[name], "__module__", module.__name__) == module.__name__, name
    star = {}
    exec("from ncsym import *", star)
    assert {"bell_numbers", "fubini_numbers"} <= star.keys() and set(public) <= star.keys()


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

    @pytest.mark.parametrize(
        "text, message",
        [
            ("١,2.3", "malformed integer '١' in block '١,2'"),
            ("1,²", "malformed integer '²' in block '1,²'"),
        ],
    )
    def test_extended_form_takes_ascii_digits_only(self, text, message, capsys):
        _raises(NotationError, message, lambda: P(text))
        assert main(["antipode", text]) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")

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

    @pytest.mark.parametrize("text", ["١", "1_000", " -2 ", "+1", "-", "", "--1", "1.0", 1])
    def test_coefficient_strings_are_ascii_decimals_only(self, text):
        # int(text, 10) alone would read "١" as 1, "1_000" as 1000, " -2 "
        # as -2 and "+1" as 1.
        message = f"coefficient must be a decimal string, got {text!r}"
        obj = {"terms": [{"coeff": text, "partition": [[1]]}]}
        _raises(ValueError, message, lambda: serialize.element_from_obj(obj))
        obj = {"terms": [{"coeff": text, "left": [[1]], "right": []}]}
        _raises(ValueError, message, lambda: serialize.tensor_from_obj(obj))

    def test_coefficient_strings_read_as_decimals(self):
        obj = {"terms": [{"coeff": c, "partition": [[1]]} for c in ("-12", "007", "0")]}
        assert serialize.element_from_obj(obj) == NCSymElement({P("1"): -5})

    @pytest.fixture
    def digit_limit(self):
        """Sets the interpreter's int/str digit limit for one test."""
        saved = sys.get_int_max_str_digits()
        yield sys.set_int_max_str_digits
        sys.set_int_max_str_digits(saved)

    def test_coefficient_past_the_digit_limit_is_refused(self, digit_limit):
        # The interpreter converts at most sys.get_int_max_str_digits() digits
        # (4 300 by default, 0 for no limit); the decoders name the limit
        # before int() would raise its own message.
        digit_limit(4300)
        message = "coefficient has 5000 digits, over the limit of 4300"
        for sign in ("", "-"):
            obj = {"terms": [{"coeff": sign + "7" * 5000, "partition": [[1]]}]}
            _raises(ValueError, message, lambda: serialize.element_from_obj(obj))
            obj = {"terms": [{"coeff": sign + "7" * 5000, "left": [[1]], "right": []}]}
            _raises(ValueError, message, lambda: serialize.tensor_from_obj(obj))
            text = sign + "7" * 4300
            obj = {"terms": [{"coeff": text, "partition": [[1]]}]}
            assert serialize.element_from_obj(obj) == NCSymElement({P("1"): int(text)})
        digit_limit(0)
        obj = {"terms": [{"coeff": "7" * 5000, "partition": [[1]]}]}
        assert serialize.element_from_obj(obj) == NCSymElement({P("1"): int("7" * 5000)})

    def test_decoders_are_the_constructors(self):
        assert serialize.partition_from_obj is SetPartition
        assert serialize.composition_from_obj is SetComposition
        assert serialize.word_from_obj is Word

    @pytest.mark.parametrize("bad", [-1, True, 1.5])
    @pytest.mark.parametrize(
        "what, call",
        [
            pytest.param(
                "shift amount must be a nonnegative", lambda k: P("12.3").shift(k), id="shift"
            ),
            *(
                pytest.param("size must be a nonnegative", stream, id=stream.__name__)
                for stream in (
                    set_partitions,
                    atomic_set_partitions,
                    set_compositions,
                    anchored_compositions,
                    verify.growth_string_count,
                )
            ),
            pytest.param(
                "size must be a nonnegative",
                lambda n: verify.quasi_shuffle_count(n, 2),
                id="quasi_shuffle_count-k",
            ),
            pytest.param(
                "size must be a nonnegative",
                lambda n: verify.quasi_shuffle_count(2, n),
                id="quasi_shuffle_count-l",
            ),
            pytest.param(
                "size must be a nonnegative",
                lambda r: restriction_tensor_sum(r, {1}, {2}),
                id="restriction_tensor_sum",
            ),
            pytest.param(
                "max weight must be a nonnegative",
                lambda n: verify.run_checks(n, ["cardinalities"]),
                id="run_checks",
            ),
            pytest.param(
                "total weight must be a positive", hopf.lyndon_atom_words, id="lyndon_atom_words"
            ),
            *(
                pytest.param("weight must be a positive", layer, id=layer.__name__)
                for layer in (hopf.primitive_space_dimension, hopf.hall_span_check)
            ),
        ],
    )
    def test_integer_arguments_share_one_check(self, what, call, bad):
        _raises(ValueError, f"{what} integer, got {bad!r}", lambda: call(bad))

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

    @pytest.mark.parametrize(
        "message, thunk",
        [
            ("shift amount must be a nonnegative integer, got True", lambda: P("12.3").shift(True)),
            ("shift amount must be a nonnegative integer, got 1.0", lambda: P("12.3").shift(1.0)),
            ("block index True out of range 1..2", lambda: P("12.3").sub_partition([True])),
            ("block index 1.0 out of range 1..2", lambda: P("12.3").sub_partition([1, 1.0])),
            ("block index '2' out of range 1..2", lambda: P("12.3").sub_partition([3, "2"])),
            ("part index False out of range 1..2", lambda: C("1|2").subsequence([False])),
            ("prefix length True out of range", lambda: W("1|2|3").prefix(True)),
            ("prefix length 1.5 out of range", lambda: W("1|2|3").prefix(1.5)),
            ("suffix start True out of range", lambda: W("1|2|3").suffix(True)),
            ("suffix start 1.5 out of range", lambda: W("1|2|3").suffix(1.5)),
        ],
    )
    def test_bool_and_non_int_indices_and_amounts(self, message, thunk):
        _raises(ValueError, message, thunk)
