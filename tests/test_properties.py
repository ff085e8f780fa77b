import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

from ncsym import (
    EMPTY_PARTITION,
    NCSymElement,
    SetComposition,
    SetPartition,
    Word,
    antipode,
    antipode_oracle,
    compositions_of,
    disjoint,
    quasi_shuffle,
    set_compositions,
    word_restrict,
)


@st.composite
def partitions(draw, max_weight=7, max_element=30, standard=False):
    n = draw(st.integers(min_value=0, max_value=max_weight))
    labels = []
    top = -1
    for _ in range(n):
        v = draw(st.integers(min_value=0, max_value=top + 1))
        labels.append(v)
        top = max(top, v)
    if standard:
        ground = list(range(1, n + 1))
    else:
        ground = sorted(
            draw(st.sets(st.integers(1, max_element), min_size=n, max_size=n))
        )
    blocks = [[] for _ in range(top + 1)]
    for element, label in zip(ground, labels):
        blocks[label].append(element)
    return SetPartition(blocks)


@st.composite
def compositions(draw, max_weight=6, max_element=30):
    base = draw(partitions(max_weight=max_weight, max_element=max_element))
    order = draw(st.permutations(range(base.length)))
    return SetComposition(base.blocks[i] for i in order)


@st.composite
def disjoint_word_pairs(draw, max_letters=3):
    pool = iter(draw(st.permutations(range(1, 25))))

    def word():
        letters = []
        for _ in range(draw(st.integers(0, max_letters))):
            letters.append(sorted(next(pool) for _ in range(draw(st.integers(1, 3)))))
        return Word(letters)

    return word(), word()


@given(partitions())
def test_parse_format_roundtrip(part):
    assert SetPartition.parse(part.format()) == part
    assert SetPartition.parse(part.format("extended")) == part


@given(compositions())
def test_composition_roundtrip(comp):
    assert SetComposition.parse(comp.format()) == comp
    assert SetComposition.parse(comp.format("extended")) == comp


@given(partitions(max_element=20), st.integers(0, 10))
def test_standardize_absorbs_shift(part, k):
    assert part.shift(k).standardize() == part.standardize()


@given(partitions(standard=True), partitions(standard=True), partitions(standard=True))
def test_concat_associative_with_unit(a, b, c):
    assert a.concat(b).concat(c) == a.concat(b.concat(c))
    assert EMPTY_PARTITION.concat(a) == a == a.concat(EMPTY_PARTITION)
    ab = a.concat(b)
    assert ab.weight == a.weight + b.weight
    assert ab.length == a.length + b.length


@given(partitions(standard=True))
def test_atoms_refold(part):
    refolded = EMPTY_PARTITION
    for atom in part.atoms():
        assert atom.is_atomic()
        refolded = refolded.concat(atom)
    assert refolded == part
    assert part.is_atomic() == (len(part.atoms()) == 1)


@given(partitions(standard=True, max_weight=6), st.data())
def test_evaluate_weight_and_length_laws(part, data):
    if part.length == 0:
        return
    indices = data.draw(
        st.sets(st.integers(1, part.length), min_size=1, max_size=part.length)
    )
    gamma = data.draw(st.sampled_from(list(compositions_of(indices))))
    image = gamma.evaluate(part)
    picked = [part.blocks[k - 1] for p in gamma.parts for k in p]
    assert image.weight == sum(len(b) for b in picked)
    assert image.length == len(picked)


@settings(max_examples=60)
@given(st.lists(st.tuples(partitions(standard=True, max_weight=6), st.integers(-3, 3)), max_size=4))
def test_antipode_of_an_element_is_the_sum_of_its_terms(terms):
    x = NCSymElement(terms)
    want = NCSymElement.zero()
    for part, coeff in x.items():
        want += coeff * antipode_oracle(part)
    assert antipode(x) == want


@settings(max_examples=60)
@given(disjoint_word_pairs())
def test_quasi_shuffle_projections(pair):
    u, v = pair
    assert disjoint(u, v)
    for w in quasi_shuffle(u, v):
        if u.letters:
            assert word_restrict(w, u.ground()) == u
        if v.letters:
            assert word_restrict(w, v.ground()) == v


def test_refinement_is_a_partial_order_on_four():
    comps = list(set_compositions(4))
    relation = {
        (i, j): a.refines(b)
        for i, a in enumerate(comps)
        for j, b in enumerate(comps)
    }
    for i in range(len(comps)):
        assert relation[i, i]
    related = [(i, j) for (i, j), v in relation.items() if v]
    for i, j in related:
        if relation[j, i]:
            assert i == j
    successors = {}
    for i, j in related:
        successors.setdefault(i, []).append(j)
    for i, j in related:
        for k in successors.get(j, ()):
            assert relation[i, k]
