"""One table of work limits: every guarded entry point refuses the first size
whose predicted count exceeds ``setparts.WORK_LIMIT`` = 10^6, with its exact
message and before its inner step runs, and reaches that step at the last
size under it."""

import pytest

from ncsym import (
    NCSymElement,
    SetPartition,
    Word,
    atomic_set_partitions,
    cli,
    hopf,
    set_partitions,
    setparts,
    words,
)
from ncsym.cli import main


class Reached(Exception):
    """Raised by a patched inner step: the call got past its check."""


def reached(*args):
    raise Reached


def singletons(r):
    return SetPartition([(i,) for i in range(1, r + 1)])


def atom(r):
    """The atom {1, r + 1}, {2}, ..., {r} of r blocks."""
    return SetPartition([(1, r + 1)] + [(i,) for i in range(2, r + 1)])


def element(part):
    return NCSymElement.from_partition(part)


def one_letter_words(k, l):
    """The words 1|2|...|k and (k+1)|...|(k+l) of one-element letters, in
    the extended form."""
    spans = ((1, k + 1), (k + 1, k + l + 1))
    return tuple("|".join(map(str, range(a, b))) + "," for a, b in spans)


def quasi_shuffle_of(shuffle):
    return lambda k: shuffle(*map(Word.parse, one_letter_words(k, k)))


# (entry point, call on a size, inner step patched in hopf, first size over
# the limit, its message).
LIBRARY = [
    (
        "coproduct",
        lambda r: hopf.coproduct(element(singletons(r))),
        "_all_splits",
        20,
        "coproduct of 20 blocks: predicted 2^20 = 1048576 splits",
    ),
    (
        "antipode",
        lambda r: hopf.antipode(element(atom(r))),
        "_kernel",
        13,
        "antipode of an atom of 13 blocks: predicted 3^13 = 1594323 splits",
    ),
    (
        "antipode_factored",
        lambda r: hopf.antipode_factored(atom(r)),
        "_kernel",
        13,
        "antipode of an atom of 13 blocks: predicted 3^13 = 1594323 splits",
    ),
    (
        "antipode_direct",
        lambda r: hopf.antipode_direct(singletons(r)),
        "set_compositions",
        9,
        "antipode_direct of 9 blocks: predicted Fubini(9) = 7087261 compositions",
    ),
    (
        "antipode_direct_terms",
        lambda r: hopf.antipode_direct_terms(singletons(r)),
        "set_compositions",
        9,
        "antipode_direct of 9 blocks: predicted Fubini(9) = 7087261 compositions",
    ),
    (
        "antipode_oracle",
        lambda r: hopf.antipode_oracle(singletons(r)),
        "_oracle_codes",
        13,
        "antipode_oracle of 13 blocks: predicted 3^13 = 1594323 splits",
    ),
    (
        "primitive",
        lambda r: hopf.primitive(singletons(r)),
        "_kernel",
        13,
        "primitive of 13 blocks: predicted 3^13 = 1594323 splits",
    ),
    (
        "_primitive_anchored",
        lambda r: hopf._primitive_anchored(singletons(r)),
        "anchored_compositions",
        9,
        "_primitive_anchored of 9 blocks: predicted 2·Fubini(8) = 1091670 compositions",
    ),
    (
        "primitive_space_dimension",
        hopf.primitive_space_dimension,
        "set_partitions",
        10,
        "primitive_space_dimension of weight 10: predicted Σ_A 2^|A| = 4412798 splits",
    ),
    (
        "lyndon_atom_words",
        hopf.lyndon_atom_words,
        "set_partitions",
        12,
        "lyndon_atom_words of weight 12: predicted Bell(12) = 4213597 partitions",
    ),
    (
        "hall_span_check",
        hopf.hall_span_check,
        "set_partitions",
        10,
        "hall_span_check of weight 10: predicted Σ_A 2^|A| = 4412798 splits",
    ),
]


# The same for the entry points in words.
WORDS = [
    (
        "restriction_tensor_sum",
        lambda r: words.restriction_tensor_sum(r, {1}, set(range(2, r + 1))),
        "_restriction_kernel",
        9,
        "restriction_tensor_sum of 9 elements: predicted 2·Fubini(8) = 1091670 compositions",
    ),
    (
        "quasi_shuffle",
        quasi_shuffle_of(words.quasi_shuffle),
        "_qshuffle",
        9,
        "quasi_shuffle of 9 and 9 letters: predicted D(9,9) = 1462563 words",
    ),
    (
        "left_quasi_shuffle",
        quasi_shuffle_of(words.left_quasi_shuffle),
        "_qshuffle",
        10,
        "left_quasi_shuffle of 10 and 10 letters: predicted D(9,10) + D(9,9) = 4780008 words",
    ),
]


@pytest.mark.parametrize(
    "module, call, step, size, message",
    [(hopf, *row[1:]) for row in LIBRARY] + [(words, *row[1:]) for row in WORDS],
    ids=[row[0] for row in LIBRARY + WORDS],
)
def test_library_refuses_before_the_inner_step(monkeypatch, module, call, step, size, message):
    monkeypatch.setattr(module, step, reached)
    with pytest.raises(ValueError) as refused:
        call(size)
    assert str(refused.value) == f"{message} (limit 1000000)"
    with pytest.raises(Reached):
        call(size - 1)


def test_words_predict_in_constant_time(monkeypatch):
    # Past 21 the counts are read as lower bounds, so no size is too large
    # to refuse at once, and no set of {1..r} is built first.
    monkeypatch.setattr(words, "_restriction_kernel", reached)
    monkeypatch.setattr(words, "_qshuffle", reached)
    u, v = map(Word.parse, one_letter_words(30, 40))
    calls = [
        (
            lambda: words.restriction_tensor_sum(10**9, {1}, set()),
            "restriction_tensor_sum of 1000000000 elements: predicted 2·Fubini(999999999)"
            " > 162249649997008147763642 compositions",
        ),
        (
            lambda: words.quasi_shuffle(u, v),
            "quasi_shuffle of 30 and 40 letters: predicted D(30,40)"
            " > 16878228622583731000413777 words",
        ),
        (
            lambda: words.left_quasi_shuffle(u, v),
            "left_quasi_shuffle of 30 and 40 letters: predicted D(29,40) + D(29,39)"
            " > 9236934507284651307103392 words",
        ),
    ]
    for call, message in calls:
        with pytest.raises(ValueError) as refused:
            call()
        assert str(refused.value) == f"{message} (limit 1000000)"


# (kind, first size over the limit, its predicted count).
ENUMERATE = [
    ("partitions", 12, "Bell(12) = 4213597"),
    ("atomic", 12, "Bell(12) = 4213597"),
    ("compositions", 9, "Fubini(9) = 7087261"),
    ("anchored", 9, "Fubini(9) = 7087261"),
]


@pytest.mark.parametrize("kind, size, count", ENUMERATE)
@pytest.mark.parametrize("flags", [(), ("--count",)])
def test_enumerate_refuses_before_the_stream(capsys, monkeypatch, kind, size, count, flags):
    monkeypatch.setattr(cli, "_STREAMS", dict.fromkeys(cli._STREAMS, reached))
    monkeypatch.setattr(cli, "_COUNTS", dict.fromkeys(cli._COUNTS, reached))
    assert main(["enumerate", kind, str(size), *flags]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: enumerate {kind} {size}: predicted count {count} (limit 1000000)\n"
    )
    with pytest.raises(Reached):
        main(["enumerate", kind, str(size - 1), *flags])


# (flags, first size over the limit on each side, the library's message).
QSHUFFLE = [
    ((), 9, WORDS[1][-1]),
    (("--left",), 10, WORDS[2][-1]),
]


@pytest.mark.parametrize("flags, size, message", QSHUFFLE, ids=["qshuffle", "qshuffle--left"])
def test_qshuffle_refuses_before_the_recursion(capsys, monkeypatch, flags, size, message):
    monkeypatch.setattr(words, "_qshuffle", reached)
    assert main(["qshuffle", *one_letter_words(size, size), *flags]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message} (limit 1000000)\n"
    with pytest.raises(Reached):
        main(["qshuffle", *one_letter_words(size - 1, size - 1), *flags])


def test_product_of_atoms_refused_before_multiplying():
    # Each copy of 13.2 has a 3-term antipode, and no two products of the
    # factors' terms coincide: 13 copies ask for 3^13 terms.
    x = NCSymElement.unit()
    for _ in range(13):
        x = x * element(SetPartition.parse("13.2"))
    with pytest.raises(ValueError) as refused:
        hopf.antipode(x)
    assert str(refused.value) == (
        "antipode of a product of atoms: predicted Π|S(atom)| = 1594323 terms (limit 1000000)"
    )


def test_primitive_layer_predicts_its_coproduct_splits():
    # A001861: 1, 2, 6, 22, 94, ..., 89918 at 8, 610182 at 9, 4412798 at 10.
    for n in range(8):
        assert hopf._split_count(n) == sum(2**part.length for part in set_partitions(n))
    assert [hopf._split_count(n) for n in (8, 9, 10)] == [89918, 610182, 4412798]


LYNDON = "is_lyndon of 1001 letters: predicted 1001·1000 = 1001000 suffix letters (limit 1000000)"


@pytest.mark.parametrize(
    "call, step",
    [(words.is_lyndon, None), (words.lyndon_split, "_split"), (words.hall_tree, "_hall_tree")],
    ids=["is_lyndon", "lyndon_split", "hall_tree"],
)
def test_lyndon_routines_refuse_past_1000_letters(monkeypatch, call, step):
    # Each suffix of an n-letter word is copied and compared: n·(n - 1)
    # letters, over the limit from 1 001 letters on.
    with pytest.raises(ValueError) as refused:
        call("a" * 1000 + "b")
    assert str(refused.value) == LYNDON
    comb = "a" * 999 + "b"
    if step is None:
        assert call(comb) is True
    else:
        monkeypatch.setattr(words, step, reached)
        with pytest.raises(Reached):
            call(comb)


@pytest.mark.parametrize("command", ["lyndon", "hall"])
def test_lyndon_commands_refuse_past_1000_letters(capsys, command):
    for word in ("a" * 1000 + "b", "a" * 131070 + "b"):
        assert main([command, word]) == 2
        n = len(word)
        message = f"is_lyndon of {n} letters: predicted {n}·{n - 1} = {n * (n - 1)} suffix letters"
        assert capsys.readouterr() == ("", f"error: {message} (limit 1000000)\n")


def test_hall_of_the_accepted_comb_ends_at_the_recursion_limit(capsys):
    # The 1 000-letter comb a…ab passes the prediction, but its Hall tree is
    # a thousand levels deep: it ends as an input too large, not a traceback.
    assert main(["hall", "a" * 999 + "b"]) == 2
    assert capsys.readouterr() == ("", "error: input too large: recursion limit exceeded\n")


def hall_refusal(monkeypatch, word):
    """The message ``hall_primitive`` refuses the Lyndon ``word`` with,
    checking that no product was formed first."""
    assert words.is_lyndon(word, key=hopf.atom_key)
    products = []
    multiply = NCSymElement.__mul__

    def counted(x, y):
        products.append(1)
        return multiply(x, y)

    monkeypatch.setattr(NCSymElement, "__mul__", counted)
    with pytest.raises(ValueError) as refused:
        hopf.hall_primitive(word)
    assert products == []
    return str(refused.value)


def test_hall_bracket_refused_before_multiplying(monkeypatch):
    # A 12-letter Lyndon word of weight-5 atoms, a (x1..x5) a (y1..y5) with a
    # the least letter and x1 < y1.
    atoms = sorted(atomic_set_partitions(5), key=hopf.atom_key)
    word = [atoms[0], *atoms[1:6], atoms[0], *atoms[6:11]]
    assert hall_refusal(monkeypatch, word) == (
        "hall_primitive of 12 letters: predicted 2^11·Π|P(letter)| = 6291456 terms (limit 1000000)"
    )


@pytest.mark.parametrize(
    "extra, predicted",
    [
        (("12345", "1235.4", "1245.3"), "2^12·Π|P(letter)| = 1572864"),
        (("12345", "1235.4", "1245.3", "124.35", "125.34", "125.3.4"), "2^15·Π|P(letter)| = 150994944"),
    ],
)
def test_hall_word_refused_before_any_bracket(monkeypatch, extra, predicted):
    # The increasing word of the ten atoms of weight at most 4 and ``extra``.
    atoms = [a for n in range(1, 5) for a in atomic_set_partitions(n)]
    word = sorted(atoms + [SetPartition.parse(text) for text in extra], key=hopf.atom_key)
    assert hall_refusal(monkeypatch, word) == (
        f"hall_primitive of {len(word)} letters: predicted {predicted} terms (limit 1000000)"
    )


class Unformattable(str):
    def format(self, *args, **kwargs):
        raise AssertionError("a message was built for a call under the limit")


def test_a_call_under_the_limit_builds_no_message():
    setparts._check_work(setparts.WORK_LIMIT, Unformattable("x {count}"))
    setparts._check_growth(lambda m: 3**m, 12, Unformattable("x {count}"))


def test_a_refusal_fills_its_message():
    with pytest.raises(ValueError) as exc:
        message = "{0} of {1} blocks: predicted 3^{1} {count} splits"
        setparts._check_growth(lambda m: 3**m, 13, message, "y", 13)
    assert str(exc.value) == "y of 13 blocks: predicted 3^13 = 1594323 splits (limit 1000000)"
    with pytest.raises(ValueError) as exc:
        setparts._check_growth(lambda m: 2**m, 30, "z {0}: predicted 2^{0} {count}", 30)
    assert str(exc.value) == "z 30: predicted 2^30 > 2097152 (limit 1000000)"
