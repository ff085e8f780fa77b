"""Machine verification sweeps.

Each named check exercises one family of invariants: algebra and coalgebra
axioms, the three antipode routes against each other and against the defining
convolution identities, the primitive-generator theorem, the vanishing signed
restriction sums, the quasi-shuffle counting and pairing laws, unitriangular
change of basis, the Hall-primitive span, and the combinatorial cardinalities
against recurrence oracles.

Partition sweeps are exhaustive through weight 5 and fall back to seeded
random samples above that, so reports are reproducible byte for byte for a
fixed seed.  ``run_checks`` enumerates each weight's partitions once and
hands the lists to every check it runs.

A check is a generator over ``(max_weight, rng, partitions)`` that yields
one ``(condition, detail, *args)`` tuple per case, such as ``(left == x,
"left counit law {!r}", part)``: ``detail`` is a ``str.format`` template
that ``args`` fill only when the case fails, so a passing case builds no
text.  Adding a check means writing it and adding one ``(name, generator)``
row to ``_CHECKS``; ``_tallied`` turns each row into the ``CheckResult``
that ``run_checks`` returns.
"""

from __future__ import annotations

import functools
import itertools
import random

from . import hopf, setparts, words
from .hopf import NCSymElement
from .setparts import EMPTY_PARTITION, SetComposition, SetPartition, bell_numbers, fubini_numbers
from .words import Word

__all__ = [
    "CheckResult",
    "CHECK_NAMES",
    "MAX_WEIGHT",
    "run_checks",
    "quasi_shuffle_count",
    "growth_string_count",
]

EXHAUSTIVE_CAP = 5
# Largest accepted max_weight.  At 7 every seed's full run takes seconds (the
# worst sample, the 7-block partition, needs 47 293 compositions in
# antipode-methods); at 8 a sampled 8-block partition needs 545 835, about
# half a minute, and the work limit refuses ``direct`` from 9 blocks.  Each
# sampled weight's Bell(n) partitions are enumerated once per run.
MAX_WEIGHT = 7
SAMPLE_PARTITIONS = 12
SAMPLE_PAIRS = 20


class CheckResult:
    """One check's name, the cases it tallied and the details of the failed
    ones."""

    __slots__ = ("name", "cases", "failures")

    def __init__(self, name, cases=0, failures=None):
        self.name = name
        self.cases = cases
        self.failures = [] if failures is None else failures

    @property
    def ok(self):
        return not self.failures


def quasi_shuffle_count(k, l):
    """Interleave-or-merge count D with D(k,0)=D(0,l)=1 and
    D(k,l)=D(k-1,l)+D(k-1,l-1)+D(k,l-1)."""
    setparts._checked_size(k)
    setparts._checked_size(l)
    table = [[1] * (l + 1) for _ in range(k + 1)]
    for i in range(1, k + 1):
        for j in range(1, l + 1):
            table[i][j] = table[i - 1][j] + table[i - 1][j - 1] + table[i][j - 1]
    return table[k][l]


def _growth_string_partitions(n):
    """Each set partition of {1..n}, unsorted, by a walk over restricted
    growth strings (label i is the block holding i + 1, blocks in minima
    order), each decoded by ``hopf._decode``: a code path independent of
    ``setparts``' enumeration."""

    def walk(labels, top):
        if len(labels) == n:
            yield hopf._decode(labels)
        else:
            for v in range(top + 2):
                yield from walk(labels + [v], max(top, v))

    return walk([], -1)


def growth_string_count(n):
    """Count the restricted-growth strings of length n by walking them."""
    setparts._checked_size(n)
    return sum(1 for _ in _growth_string_partitions(n))


def _partition_pool(max_weight, rng, partitions):
    pool = []
    for n in range(0, min(max_weight, EXHAUSTIVE_CAP) + 1):
        pool.extend(partitions(n))
    for n in range(EXHAUSTIVE_CAP + 1, max_weight + 1):
        everything = partitions(n)
        pool.extend(rng.sample(everything, min(SAMPLE_PARTITIONS, len(everything))))
    return pool


def _pair_pool(max_weight, rng, partitions):
    pairs = []
    for n in range(0, max_weight + 1):
        # Every pair of total weight n, in (a, left, right) order: the order
        # fixes which pairs a seed samples.
        every = [(x, y) for a in range(n + 1) for x in partitions(a) for y in partitions(n - a)]
        if n > EXHAUSTIVE_CAP:
            every = rng.sample(every, min(SAMPLE_PAIRS, len(every)))
        pairs += every
    return pairs


def check_cardinalities(max_weight, rng, partitions):
    bells = bell_numbers(8)
    for n in range(0, 9):
        yield len(partitions(n)) == bells[n], "partition count n={}", n
        yield growth_string_count(n) == bells[n], "growth-string count n={}", n
    fubini = fubini_numbers(7)
    for r in range(0, 8):
        yield sum(1 for _ in setparts.set_compositions(r)) == fubini[r], "composition count r={}", r
    for n in range(1, 7):
        walked = filter(SetPartition.is_atomic, _growth_string_partitions(n))
        filtered = [p for p in partitions(n) if p.is_atomic()]
        yield sorted(walked, key=SetPartition.sort_key) == filtered, "atomic enumeration n={}", n


def check_combinatorics(max_weight, rng, partitions):
    for part in _partition_pool(max_weight, rng, partitions):
        yield SetPartition.parse(part.format()) == part, "roundtrip {!r}", part
        yield SetPartition.parse(part.format("extended")) == part, "extended roundtrip {!r}", part
        std = part.standardize()
        for k in (0, 1, 4):
            yield part.shift(k).standardize() == std, "shift/standardize {!r} k={}", part, k
        atoms = part.atoms()
        refolded = EMPTY_PARTITION
        for atom in atoms:
            yield atom.is_atomic(), "non-atomic factor of {!r}", part
            refolded = refolded.concat(atom)
        yield refolded == part, "atom refold {!r}", part
        yield part.is_atomic() == (len(atoms) == 1), "atomicity consistency {!r}", part
        if part.length:
            whole = SetComposition((tuple(range(1, part.length + 1)),))
            yield whole.evaluate(part) == part, "identity evaluation {!r}", part
    for r in range(0, min(max_weight, 4) + 1):
        comps = list(setparts.set_compositions(r))
        for gamma in comps:
            yield SetComposition.parse(gamma.format()) == gamma, "roundtrip {!r}", gamma
            yield gamma.refines(gamma), "reflexivity {!r}", gamma
            if gamma.length:
                yield gamma.restrict(gamma.ground()) == gamma, "full restrict {!r}", gamma
                yield (
                    gamma.subsequence(range(1, gamma.length + 1)) == gamma,
                    "full subsequence {!r}", gamma,
                )
        relation = {
            (i, j)
            for i, a in enumerate(comps)
            for j, b in enumerate(comps)
            if a.refines(b)
        }
        antisym = all(i == j for (i, j) in relation if (j, i) in relation)
        yield antisym, "antisymmetry r={}", r
        closed = all(
            (i, k) in relation
            for (i, j) in relation
            for (j2, k) in relation
            if j2 == j
        )
        yield closed, "transitivity r={}", r


def check_coassociativity(max_weight, rng, partitions):
    # The sums are compared as maps on codes, so no term is decoded.
    delta = lambda code: hopf.coproduct(NCSymElement._wrap({code: 1}))._terms.items()
    for part in _partition_pool(max_weight, rng, partitions):
        terms = delta(hopf._encode(part))
        first = hopf._summed(((a, b, q), c * d) for (p, q), c in terms for (a, b), d in delta(p))
        second = hopf._summed(((p, a, b), c * d) for (p, q), c in terms for (a, b), d in delta(q))
        yield first == second, "coassociativity {!r}", part


def check_counit_laws(max_weight, rng, partitions):
    for part in _partition_pool(max_weight, rng, partitions):
        # The empty-side legs, summed on codes: the empty code is the empty side.
        x = NCSymElement.from_partition(part)
        terms = hopf.coproduct(x)._terms.items()
        left = NCSymElement._combine((q, c) for (p, q), c in terms if not p)
        right = NCSymElement._combine((p, c) for (p, q), c in terms if not q)
        yield left == x, "left counit law {!r}", part
        yield right == x, "right counit law {!r}", part


def check_cocommutativity(max_weight, rng, partitions):
    for part in _partition_pool(max_weight, rng, partitions):
        delta = hopf.coproduct(NCSymElement.from_partition(part))
        yield delta.twist() == delta, "cocommutativity {!r}", part


def check_bialgebra(max_weight, rng, partitions):
    for left, right in _pair_pool(max_weight, rng, partitions):
        x = NCSymElement.from_partition(left)
        y = NCSymElement.from_partition(right)
        yield (
            hopf.coproduct(x * y) == hopf.coproduct(x) * hopf.coproduct(y),
            "compatibility {!r} {!r}", left, right,
        )


def check_antipode_convolution(max_weight, rng, partitions):
    S = functools.cache(lambda part: hopf.antipode(NCSymElement.from_partition(part)))
    identity = NCSymElement.from_partition
    for part in _partition_pool(max_weight, rng, partitions):
        expected = NCSymElement.unit() if part.weight == 0 else NCSymElement.zero()
        yield hopf.convolve(S, identity, part) == expected, "left inverse {!r}", part
        yield hopf.convolve(identity, S, part) == expected, "right inverse {!r}", part


def check_antipode_methods(max_weight, rng, partitions):
    for part in _partition_pool(max_weight, rng, partitions):
        x = NCSymElement.from_partition(part)
        direct = hopf.antipode(x, "direct")
        factored = hopf.antipode(x, "factored")
        oracle = hopf.antipode(x, "oracle")
        yield direct == factored == oracle, "method agreement {!r}", part


def check_antipode_antimorphism(max_weight, rng, partitions):
    S = functools.cache(lambda part: hopf.antipode(NCSymElement.from_partition(part)))
    for left, right in _pair_pool(max_weight, rng, partitions):
        x = NCSymElement.from_partition(left)
        y = NCSymElement.from_partition(right)
        yield hopf.antipode(x * y) == S(right) * S(left), "antimorphism {!r} {!r}", left, right


def check_antipode_involution(max_weight, rng, partitions):
    for part in _partition_pool(max_weight, rng, partitions):
        x = NCSymElement.from_partition(part)
        yield hopf.antipode(hopf.antipode(x)) == x, "involution {!r}", part


def check_grading(max_weight, rng, partitions):
    for part in _partition_pool(max_weight, rng, partitions):
        x = NCSymElement.from_partition(part)
        delta = hopf.coproduct(x)
        yield (
            all(len(p) + len(q) == part.weight for p, q in delta._terms),
            "coproduct grading {!r}", part,
        )
        s = hopf.antipode(x)
        yield s.is_homogeneous() and s.weights() == [part.weight], "antipode grading {!r}", part
        if part.weight:
            p = hopf.primitive(part)
            yield (
                p.is_zero() or (p.is_homogeneous() and p.weights() == [part.weight]),
                "primitive grading {!r}", part,
            )
    for left, right in _pair_pool(max_weight, rng, partitions):
        x = NCSymElement.from_partition(left) * NCSymElement.from_partition(right)
        yield x.weights() == [left.weight + right.weight], "product grading {!r} {!r}", left, right


def check_primitives(max_weight, rng, partitions):
    for part in _partition_pool(max_weight, rng, partitions):
        if part.weight == 0:
            continue
        p = hopf.primitive(part)
        yield p == hopf._primitive_anchored(part), "anchored-sum referee {!r}", part
        if part.is_atomic():
            yield hopf.reduced_coproduct(p).is_zero(), "reduced coproduct {!r}", part
            yield hopf.leading_term(p) == (part, 1), "leading term {!r}", part
        else:
            yield p.is_zero(), "vanishing {!r}", part


def check_restriction_sum(max_weight, rng, partitions):
    # One kernel for all the splits: its memo is keyed by the element masks
    # left on each side, which fix the sum whatever split they came from.
    signed_sum = words._restriction_kernel(EXHAUSTIVE_CAP)
    for r in range(2, min(max_weight, EXHAUSTIVE_CAP) + 1):
        for size in range(1, r):
            for extra in itertools.combinations(range(2, r + 1), size - 1):
                left = words._mask((1,) + extra)
                yield (
                    signed_sum(left, (1 << r) - 1 - left, True) == {},
                    "vanishing sum r={} K={}", r, [1, *extra],
                )


def check_quasi_shuffle(max_weight, rng, partitions):
    for k in range(0, 5):
        for l in range(0, 5):
            u = Word((i,) for i in range(1, k + 1))
            v = Word((k + j,) for j in range(1, l + 1))
            full = words.quasi_shuffle(u, v)
            yield len(full) == quasi_shuffle_count(k, l), "cardinality k={} l={}", k, l
            if k <= 3 and l <= 3 and k and l:
                yield (
                    all(
                        words.word_restrict(w, u.ground()) == u
                        and words.word_restrict(w, v.ground()) == v
                        for w in full
                    ),
                    "projection k={} l={}", k, l,
                )
            if not (k and l):
                continue
            left = words.left_quasi_shuffle(u, v)
            yield left <= full, "left subset k={} l={}", k, l
            expected = quasi_shuffle_count(k - 1, l) + quasi_shuffle_count(k - 1, l - 1)
            yield len(left) == expected, "left cardinality k={} l={}", k, l
            head = set(u.letters[0])
            yield all(head <= set(w.letters[0]) for w in left), "first letter k={} l={}", k, l
            involution_ok = True
            parity = 0
            for w in left:
                # Both calls take words of ``left``: the mate is tested first.
                mate = words._pairing(w, v)
                if (
                    mate == w
                    or mate not in left
                    or words._pairing(mate, v) != w
                    or abs(mate.length - w.length) != 1
                ):
                    involution_ok = False
                parity += (-1) ** w.length
            yield involution_ok, "pairing involution k={} l={}", k, l
            yield parity == 0, "signed sum k={} l={}", k, l


def check_unitriangular(max_weight, rng, partitions):
    # The product of the primitives along each code's atoms, taken once per
    # run on one source of primitives.  A code's atoms but its last are the
    # atoms of a lighter code, whose product the table already holds.
    primitive, text = hopf._primitives(), functools.cache(hopf._code_text)
    products = {(): NCSymElement.unit()}
    for n in range(1, max_weight + 1):
        # The basis in atom order, sorted and looked up by code, each code cut
        # into atoms once and each atom's text built once per run.
        parts = {hopf._encode(part): part for part in partitions(n)}
        atoms = {code: tuple(hopf._code_atoms(code)) for code in parts}
        basis = sorted(parts, key=lambda code: hopf._code_order(code, atoms[code], text))
        index = {code: i for i, code in enumerate(basis)}
        for i, code in enumerate(basis):
            pieces = atoms[code]
            combo = products[pieces] = products[pieces[:-1]] * primitive(hopf._decode(pieces[-1]))
            yield combo._terms.get(code) == 1, "unit diagonal {!r}", parts[code]
            yield all(index[q] >= i for q in combo._terms), "triangularity {!r}", parts[code]


def check_hall_span(max_weight, rng, partitions):
    for n in range(1, max_weight + 1):
        dim = hopf._primitive_space_dimension(partitions(n))
        lyndon = hopf._lyndon_atom_words(partitions(n))
        yield dim == len(lyndon), "dimension vs Lyndon count n={}", n
        yield hopf._hall_span(n, lyndon, dim), "hall span n={}", n


def _tallied(name, cases):
    """The check ``name`` as ``run_checks`` calls it: a ``CheckResult`` that
    tallies each ``(condition, detail, *args)`` the generator ``cases``
    yields, formatting ``detail.format(*args)`` only for a failed case (a
    detail without arguments is kept as it is)."""

    def check(max_weight, rng, partitions):
        res = CheckResult(name)
        for condition, detail, *args in cases(max_weight, rng, partitions):
            res.cases += 1
            if not condition:
                res.failures.append(detail.format(*args) if args else detail)
        return res

    return check


_CHECKS = tuple(
    (name, _tallied(name, cases))
    for name, cases in (
        ("cardinalities", check_cardinalities),
        ("combinatorics", check_combinatorics),
        ("coassociativity", check_coassociativity),
        ("counit-laws", check_counit_laws),
        ("cocommutativity", check_cocommutativity),
        ("bialgebra", check_bialgebra),
        ("antipode-convolution", check_antipode_convolution),
        ("antipode-methods", check_antipode_methods),
        ("antipode-antimorphism", check_antipode_antimorphism),
        ("antipode-involution", check_antipode_involution),
        ("grading", check_grading),
        ("primitives", check_primitives),
        ("restriction-sum", check_restriction_sum),
        ("quasi-shuffle", check_quasi_shuffle),
        ("unitriangular", check_unitriangular),
        ("hall-span", check_hall_span),
    )
)

CHECK_NAMES = tuple(name for name, _ in _CHECKS)


def run_checks(max_weight=4, names=None, seed=0):
    """Run the named checks (all by default) and return their results."""
    setparts._checked_size(max_weight, "max weight")
    if max_weight > MAX_WEIGHT:
        raise ValueError(f"max weight must be at most {MAX_WEIGHT}, got {max_weight}")
    table = dict(_CHECKS)
    if names is None:
        selected = CHECK_NAMES
    elif isinstance(names, str):
        raise TypeError(f"names must be a collection of check names, not the string {names!r}")
    else:
        selected = tuple(names)
        for name in selected:
            if name not in table:
                raise ValueError(f"unknown check {name!r}")
        if not selected:
            raise ValueError("no check selected")
    # Each weight's partitions, enumerated once for all the checks of the run;
    # no check changes the lists.
    partitions = functools.cache(lambda n: list(setparts.set_partitions(n)))
    results = []
    for name in selected:
        rng = random.Random(seed)
        results.append(table[name](max_weight, rng, partitions))
    return results
