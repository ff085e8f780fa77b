"""One table of work limits: every guarded entry point refuses the first size
whose predicted count exceeds ``setparts.WORK_LIMIT`` = 10^6, with its exact
message and before its inner step runs, and reaches that step at the last
size under it."""

import pytest

from ncsym import NCSymElement, SetPartition, cli, hopf, set_partitions
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


@pytest.mark.parametrize(
    "call, step, size, message", [row[1:] for row in LIBRARY], ids=[row[0] for row in LIBRARY]
)
def test_library_refuses_before_the_inner_step(monkeypatch, call, step, size, message):
    monkeypatch.setattr(hopf, step, reached)
    with pytest.raises(ValueError) as refused:
        call(size)
    assert str(refused.value) == f"{message} (limit 1000000)"
    with pytest.raises(Reached):
        call(size - 1)


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
