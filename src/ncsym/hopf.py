"""The graded Hopf algebra of set partitions in the powersum basis.

Elements are finitely supported integer combinations of standard set
partitions.  The product concatenates basis partitions; the coproduct sums
standardized splits of the block set over all ordered disjoint unions of the
block indices.  The antipode comes in three forms: the full signed sum over
set compositions; the default route by atoms, which applies the antipode as
an antimorphism over the atomic splitting and evaluates each atom's
composition sum by recursion on its first part (at most 3^r head/tail pairs
for an atom of r blocks, against Fubini(r) compositions); and a memoized
graded-connected recursion used as an independent oracle.  The primitive
generators, their leading-term order, and the Hall bracket basis of the
primitive Lie algebra live here too.

Each route predicts its work from the block count r and refuses, before any
work, a call whose prediction exceeds ``setparts.WORK_LIMIT`` (10^6): 2^r
splits for each coproduct term, 3^r for each atom on the default route, for
the oracle and for ``primitive``, Fubini(r) compositions for the full sum,
and 2 Fubini(r - 1) for the anchored sum.  The default route also refuses a
product over the atoms whose Π|S(atom)| terms exceed the limit, before it
multiplies.  The primitive layer predicts from the weight n: Bell(n)
partitions for the Lyndon atom words, and Σ 2^|A| reduced-coproduct splits
over the partitions A of [n] for the primitive-space dimension and the Hall
span.

The primitive generator of A, the signed sum over the compositions anchored
at 1, is computed as primitive(A) = sum over the block sets K holding block
1 of std(A|K) * S(std(A|rest)), with S(empty) = 1.  Proof: split each
anchored composition into its first part K and a composition of the rest;
the signed sum over those is the antipode of the rest, with the sign of the
first part moved onto it.  So ``primitive`` runs on the default antipode
route's kernel, and the anchored sum itself (``_primitive_anchored``)
referees it in ``verify`` and the tests.

The antipode also has a cancellation-free formula, checked in the tests but
not a route (it measured slower than the default one): S(p_A) = sum of
(-1)^k p_{std(A|K_1)|...|std(A|K_k)} over the set compositions (K_1, ...,
K_k) of the block indices with every std(A|K_i) atomic and each part's
largest element above the next part's smallest.  Proof: on all set
compositions, whose signed sum is S, go to the first i where part i is not
atomic (split off its first atom) or is atomic and lies wholly before part
i + 1 (merge the two).  That keeps the product and every earlier index's
status and changes the length by one: a sign-reversing involution whose
fixed points are the compositions above.

Inside this module a standard partition is its code: its restricted growth
string (Knuth, TAOCP 4A, 7.2.1.5), whose entry i is the 0-based index, in
block-minima order, of the block holding i + 1, so 14.2.3 is
``bytes((0, 1, 2, 0))``.  Ordering blocks by their minima is exactly the
restricted-growth condition, so equal partitions have equal codes and
nothing needs sorting.  A code is ``bytes`` up to 255 blocks and a tuple of
the same ints past that, so every partition has exactly one code (a tuple
never equals ``bytes``); ``_encode`` and the product ``_concat`` are where
tuples arise.  The 2^r splits std(A|K) of a code come from one loop over
its labels, highest first, in which every split so far either keeps the
label or drops it: one ``bytes.translate`` that deletes the label's
positions and moves every higher label down by one (``_all_splits``).  The
product appends the second code with its labels shifted up by the first's
block count.

``NCSymElement`` and ``TensorElement`` share one private base,
``_Combination`` (arithmetic, equality, hash, text form), whose terms are
keyed by codes: one per ``NCSymElement`` term, a pair per ``TensorElement``
term.  Partitions are made only at the boundary.  The public constructors
(which ``serialize`` decodes through), ``from_partition``, ``pure`` and
``coefficient`` encode their partitions, after the checks; ``items``,
``support``, the text forms and the maps handed to ``convolve`` decode each
distinct code once per call.  Sums, products, coproducts, antipodes and
primitives stay codes and are trusted: ``_Combination._combine`` and
``_wrap`` build them without re-checking.  The default antipode runs from an
element's codes to its kernel (``_factored_codes``) without a partition;
only the ``direct`` and ``oracle`` referees take each term as a partition.

Everything is exact: coefficients are Python ints, and the primitive-space
dimensions come from sparse elimination over the integers on the
reduced-coproduct maps themselves (``linalg.integer_rank``).
"""

from __future__ import annotations

import collections
import functools
import itertools
import math

from .linalg import integer_rank
from .setparts import (
    SetPartition,
    _check_growth,
    _check_work,
    _label,
    anchored_compositions,
    bell_numbers,
    fubini_numbers,
    set_compositions,
    set_partitions,
)
from .words import hall_tree, is_lyndon

__all__ = [
    "MAX_PARTS",
    "NCSymElement",
    "TensorElement",
    "product",
    "coproduct",
    "counit",
    "antipode",
    "antipode_direct",
    "antipode_direct_terms",
    "antipode_factored",
    "antipode_oracle",
    "primitive",
    "reduced_coproduct",
    "convolve",
    "atom_key",
    "partition_key",
    "leading_term",
    "hall_primitive",
    "lyndon_atom_words",
    "primitive_space_dimension",
    "hall_span_check",
    "format_element",
    "format_tensor",
]

# Read by no route: kept because ``perfbench/regen_refs.py`` gates ``direct`` on it.
MAX_PARTS = 10


def _encode(part):
    """Code of a standard partition: entry i is the index, in block-minima
    order, of the block holding i + 1; ``bytes`` up to 255 blocks, else a
    tuple."""
    code = [0] * part.weight
    for label, block in enumerate(part.blocks):
        for e in block:
            code[e - 1] = label
    return bytes(code) if len(part.blocks) <= 255 else tuple(code)


def _decode(code):
    """Standard partition of a code."""
    blocks = [[] for _ in range(_blocks(code))]
    for i, label in enumerate(code, 1):
        blocks[label].append(i)
    return SetPartition._of(tuple(map(tuple, blocks)))


def _blocks(code):
    """Block count of a code: one more than its largest label."""
    return max(code, default=-1) + 1


# _SHIFT[k] adds k to every label byte, and _SHIFT[-k] subtracts it.
_IDENTITY = bytes(range(256))
_SHIFT = [_IDENTITY[k:] + _IDENTITY[:k] for k in range(256)]


def _concat(x, y):
    """Code of the concatenation product: x, then y with its labels shifted
    up by x's block count; a tuple once the blocks pass 255."""
    k = _blocks(x)
    # A code has no more blocks than entries, so short codes skip a max.
    if len(x) + len(y) <= 255 or k + _blocks(y) <= 255:
        return x + y.translate(_SHIFT[k])
    return (*x, *(label + k for label in y))


def _basis_code(part):
    """Code of an element's term key, after checking that it is a standard
    partition."""
    if not isinstance(part, SetPartition):
        raise TypeError(f"term keys must be SetPartition, got {type(part).__name__}")
    if not part.is_standard():
        raise ValueError(f"element terms must be standard partitions, got {part!r}")
    return _encode(part)


def _tensor_code(pair):
    if not (isinstance(pair, tuple) and len(pair) == 2):
        raise TypeError("tensor keys must be pairs of partitions")
    return _basis_code(pair[0]), _basis_code(pair[1])


def _lookup_code(part):
    """Code of a standard partition; any other argument comes back in a
    1-tuple, which hashes it as a dict lookup would and equals no code."""
    if isinstance(part, SetPartition) and part.is_standard():
        return _encode(part)
    return (part,)


def _tensor_lookup(pair):
    if isinstance(pair, tuple) and len(pair) == 2:
        return _lookup_code(pair[0]), _lookup_code(pair[1])
    return (pair,)


def _summed(pairs):
    data = {}
    for key, coeff in pairs:
        data[key] = data.get(key, 0) + coeff
    return _nonzero(data)


def _nonzero(data):
    # Deleting the cancelled keys in place hashes no surviving key again.
    for key in [key for key, c in data.items() if not c]:
        del data[key]
    return data


class _Combination:
    """Shared body of ``NCSymElement`` and ``TensorElement``: immutable integer
    combinations keyed by codes, the subclass naming how a key is encoded,
    decoded, ordered and multiplied.  No zero coefficient is stored; equality
    is term-map equality."""

    __slots__ = ("_terms",)

    def __init__(self, terms=()):
        pairs = terms.items() if hasattr(terms, "items") else terms
        self._terms = _summed(map(self._checked, pairs))

    def _checked(self, pair):
        key, coeff = pair
        code = self._key_code(key)
        if not isinstance(coeff, int) or isinstance(coeff, bool):
            raise TypeError(f"coefficients must be int, got {coeff!r}")
        return code, coeff

    @classmethod
    def _combine(cls, pairs):
        """Trusted constructor: sums (code, int) pairs."""
        return cls._wrap(_summed(pairs))

    @classmethod
    def _wrap(cls, data):
        """Trusted constructor that takes over a dict of codes to ints."""
        self = object.__new__(cls)
        self._terms = _nonzero(data)
        return self

    @classmethod
    def zero(cls):
        return cls()

    def coefficient(self, key):
        return self._terms.get(self._lookup(key), 0)

    def support(self):
        return [key for key, _ in self.items()]

    def items(self):
        return sorted(self._decoded(), key=lambda kc: self._sort_key(kc[0]))

    def is_zero(self):
        return not self._terms

    def __bool__(self):
        return bool(self._terms)

    def __eq__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self):
        return hash(frozenset(self._terms.items()))

    def __add__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return self._combine(itertools.chain(self._terms.items(), other._terms.items()))

    def __sub__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return self._wrap({key: -c for key, c in self._terms.items()})

    def __mul__(self, other):
        if isinstance(other, int) and not isinstance(other, bool):
            return self._wrap({key: c * other for key, c in self._terms.items()})
        if isinstance(other, type(self)):
            return self._combine(
                (self._key_product(a, b), ca * cb)
                for a, ca in self._terms.items()
                for b, cb in other._terms.items()
            )
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, int) and not isinstance(other, bool):
            return self * other
        return NotImplemented

    def __str__(self):
        # Through the module-level names, which a tracer may rebind.
        return (format_tensor if isinstance(self, TensorElement) else format_element)(self)

    def __repr__(self):
        return f"{type(self).__name__}<{self}>"


class NCSymElement(_Combination):
    """Integer linear combination of standard set partitions."""

    __slots__ = ()
    _key_code = staticmethod(_basis_code)
    _lookup = staticmethod(_lookup_code)
    _sort_key = staticmethod(SetPartition.sort_key)
    _key_product = staticmethod(_concat)

    def _decoded(self):
        """The terms as (partition, coefficient) pairs, unsorted."""
        return [(_decode(code), c) for code, c in self._terms.items()]

    @classmethod
    def from_partition(cls, part):
        return cls(((part, 1),))

    @classmethod
    def unit(cls):
        return cls._wrap({b"": 1})

    def weights(self):
        return sorted(set(map(len, self._terms)))

    def is_homogeneous(self):
        return len(self.weights()) <= 1


class TensorElement(_Combination):
    """Integer combination of ordered pairs of standard set partitions."""

    __slots__ = ()
    _key_code = staticmethod(_tensor_code)
    _lookup = staticmethod(_tensor_lookup)

    def _decoded(self):
        """The terms as ((left, right), coefficient) pairs, unsorted, each
        distinct code decoded once."""
        parts = {code: _decode(code) for code in set(itertools.chain.from_iterable(self._terms))}
        return [((parts[a], parts[b]), c) for (a, b), c in self._terms.items()]

    @staticmethod
    def _sort_key(pair):
        return pair[0].sort_key(), pair[1].sort_key()

    @staticmethod
    def _key_product(a, b):
        return _concat(a[0], b[0]), _concat(a[1], b[1])

    @classmethod
    def pure(cls, left, right, coeff=1):
        return cls((((left, right), coeff),))

    def twist(self):
        """Swap the tensor factors."""
        return self._wrap({(q, p): c for (p, q), c in self._terms.items()})


def product(x, y):
    """Bilinear extension of partition concatenation; unit is the empty
    partition."""
    return x * y


# _DROP[l] deletes label l and moves every higher label down by one.
_DROP = [(_IDENTITY[: l + 1] + _IDENTITY[l:255], _IDENTITY[l : l + 1]) for l in range(256)]


def _all_splits(code):
    """std(A|K) for every label set K of a code of at most 255 blocks: entry
    i keeps label l exactly when bit (r - 1 - l) of i is set, for r labels.

    Built from the highest label down, each split either dropping the label
    or keeping it, so the complement of entry i is entry 2^r - 1 - i and the
    sets holding label 0 are the second half."""
    splits = [code]
    for table, drop in reversed(_DROP[: _blocks(code)]):
        splits = [c.translate(table, drop) for c in splits] + splits
    return splits


def coproduct(x):
    """Sum of standardized block splits over ordered disjoint index unions.

    A basis partition with r blocks contributes 2^r terms, one per ordered
    pair (K, L) with K and L disjoint and covering {1..r}, including the
    empty sides.  Each term's splits are taken as byte translates of its code
    (see ``_all_splits``), and equal (head, tail) code pairs are summed in one
    dict.  A term whose 2^r splits exceed the work limit is refused first
    (and so is any term past 255 blocks, whose labels would not fit a byte).
    """
    r = max(map(_blocks, x._terms), default=0)
    _check_growth(f"coproduct of {r} blocks", f"2^{r}", lambda m: 2**m, r, "splits")
    splits = {}
    for code, coeff in x._terms.items():
        heads = _all_splits(code)
        # The tail of entry i is the head of its complement, entry 2^r - 1 - i,
        # which runs down as i runs up.
        for pair in zip(heads, reversed(heads)):
            splits[pair] = splits.get(pair, 0) + coeff
    return TensorElement._wrap(splits)


def counit(x):
    """Coefficient of the empty partition."""
    return x._terms.get(b"", 0)


def _require_standard(part, what):
    if not isinstance(part, SetPartition):
        raise TypeError(f"{what} expects a SetPartition")
    if not part.is_standard():
        raise ValueError(f"{what} requires a standard partition")


def antipode_direct_terms(part):
    """Uncombined signed terms of the antipode: one per set composition of
    the block indices, before any cancellation.  The Fubini(r) compositions
    of r blocks are checked against the work limit when this is called."""
    _require_standard(part, "antipode")
    r = part.length
    what = f"antipode_direct of {r} blocks"
    _check_growth(what, f"Fubini({r})", lambda m: fubini_numbers(m)[m], r, "compositions")
    return (((-1) ** gamma.length, gamma.evaluate(part)) for gamma in set_compositions(r))


def antipode_direct(part):
    """Antipode of a basis partition by the full signed composition sum,
    evaluated on partitions, independently of the code kernel it referees."""
    return NCSymElement._combine((_encode(p), sign) for sign, p in antipode_direct_terms(part))


def _code_atoms(code):
    """Atoms of a nonempty code, each relabelled from 0: a cut falls before
    the first use of a label when no earlier label is used again after it.
    A tuple code is cut by ``SetPartition.atoms``."""
    if isinstance(code, tuple):
        return [_encode(atom) for atom in _decode(code).atoms()]
    pieces = []
    start = base = 0
    reach = code.rfind(0)
    for label in range(1, max(code) + 1):
        first = code.find(label)
        if first > reach:
            pieces.append(code[start:first].translate(_SHIFT[-base]))
            start, base = first, label
        reach = max(reach, code.rfind(label))
    pieces.append(code[start:].translate(_SHIFT[-base]))
    return pieces


def _kernel():
    """The default route's antipode on codes, memoized for one call.

    Returns ``antipode_of(code, pieces=None)``, a dict of codes to
    coefficients, where ``pieces`` may hand over the code's atoms when the
    caller has already split it, and ``first_part_sum(code, anchored,
    sign)``: sign times the sum over the nonempty label sets K of std(A|K) *
    S(std(A|rest)), K running over the sets holding label 0 only when
    ``anchored``.  Equal (head, tail) splits are combined first; a product is
    ``head + q`` with q's labels shifted up.  A product of atoms whose
    Π|S(atom)| terms exceed the work limit is refused before it is
    multiplied.  Callers may keep the dicts returned, but not change them.
    """
    memo = {b"": {b"": 1}}

    def first_part_sum(code, anchored, sign):
        subs = _all_splits(code)
        # (std(A|K), std(A|rest)) for each nonempty K: rest is the mirrored
        # entry, and the sets holding label 0 are the second half.
        half = len(subs) // 2
        pairs = zip(subs[half:], subs[half - 1 :: -1]) if anchored else zip(subs[1:], subs[-2::-1])
        out = {}
        for (head, tail), coeff in collections.Counter(pairs).items():
            shift = _SHIFT[max(head) + 1]
            coeff *= sign
            # A memo hit skips the call: no antipode is empty.
            for q, c in (memo.get(tail) or antipode_of(tail)).items():
                key = head + q.translate(shift)
                out[key] = out.get(key, 0) + coeff * c
        return _nonzero(out)

    def antipode_of(code, pieces=None):
        got = memo.get(code)
        if got is not None:
            return got
        if pieces is None:
            pieces = _code_atoms(code)
        if len(pieces) == 1:
            got = first_part_sum(code, False, -1)
        else:
            # S(A_t)...S(A_1).  Every term of an atom's antipode has the
            # atom's block count, so no two products of the factors' terms
            # coincide, the product has exactly as many terms as the product
            # of the factors' sizes, and the running product is shifted once
            # per atom.
            factors = [antipode_of(piece, [piece]) for piece in pieces]
            size = math.prod(map(len, factors))
            _check_work("antipode of a product of atoms", "Π|S(atom)|", size, "terms")
            got = factors[0]
            blocks = _blocks(pieces[0])
            for piece, factor in zip(pieces[1:], factors[1:]):
                k = _blocks(piece)
                blocks += k
                if blocks <= 255:
                    shift = _SHIFT[k]
                    tails = [(y.translate(shift), cy) for y, cy in got.items()]
                    got = {x + y: cx * cy for x, cx in factor.items() for y, cy in tails}
                else:
                    got = {
                        _concat(x, y): cx * cy for x, cx in factor.items() for y, cy in got.items()
                    }
        memo[code] = got
        return got

    return antipode_of, first_part_sum


def _factored_codes(terms):
    """The default route on a map of codes to coefficients: a new dict of the
    antipode's codes to coefficients.

    Each nonempty code is cut into atoms once, and the 3^r splits of the
    widest atom are checked against the work limit before any work; one
    kernel, and so one memo, serves all the terms.
    """
    atoms = {code: _code_atoms(code) for code in terms if code}
    r = max(map(_blocks, itertools.chain.from_iterable(atoms.values())), default=0)
    _check_growth(f"antipode of an atom of {r} blocks", f"3^{r}", lambda m: 3**m, r, "splits")
    antipode_of, _ = _kernel()
    if len(terms) == 1:
        ((code, coeff),) = terms.items()
        return {q: coeff * c for q, c in antipode_of(code, atoms.get(code)).items()}
    out = {}
    for code, coeff in terms.items():
        for q, c in antipode_of(code, atoms.get(code)).items():
            out[q] = out.get(q, 0) + coeff * c
    return _nonzero(out)


def antipode_factored(part):
    """Antipode by atoms: the default route.

    S is an antimorphism over the atomic splitting, S(A) = S(A_t)...S(A_1).
    An atom's antipode is its signed composition sum, taken by recursion on
    the first part K: S(A) = -sum over nonempty K of std(A|K) * S(std(A|rest)),
    with equal (head, tail) splits combined and each tail's antipode again by
    atoms.  Every partition met is a standardized sub-partition of one input
    atom, memoized for this call only, so an atom of r blocks costs at most
    3^r head/tail pairs and a many-atom input the sum of its atoms' costs.

    The whole route runs on codes (see ``_encode``), which are canonical by
    construction: the heads and tails are byte translates of the code
    (``_all_splits``), a product is ``head + q`` with q's labels shifted up,
    and no partition is built, sorted or checked inside.  An input whose
    widest atom's 3^r splits exceed the work limit (13 blocks or more) is
    refused before any work, and a product over the atoms with more terms
    than the limit before it is multiplied; the product keys past 255 blocks
    by a tuple.  This checks the partition and runs the code-level body that
    the element-level ``antipode`` runs on its terms; the empty partition
    gives the unit.
    """
    _require_standard(part, "antipode")
    return NCSymElement._wrap(_factored_codes({_encode(part): 1}))


@functools.cache
def _oracle_codes(code):
    """Graded-connected recursion on codes, memoized for the process: the
    dicts it returns are shared and must not be changed."""
    if not code:
        return {b"": 1}
    pairs = [(code, -1)]
    for (left, right), coeff in coproduct(NCSymElement._wrap({code: 1}))._terms.items():
        if left and right:
            pairs += [(_concat(q, right), -coeff * c) for q, c in _oracle_codes(left).items()]
    return _summed(pairs)


def antipode_oracle(part):
    """Graded-connected recursion for the antipode, memoized.

    S(empty) = empty; otherwise S(A) = -A - sum of S(A') * A'' over the
    coproduct terms with both sides nonempty.  Independent of the
    composition-sum formulas, so it can referee them.  The memo table, keyed
    by codes, only ever inserts, so concurrent duplicated computation is
    harmless; ``antipode_oracle.cache_info()`` reports it.  The 3^r splits
    of r blocks are checked against the work limit first.
    """
    _require_standard(part, "antipode")
    r = part.length
    _check_growth(f"antipode_oracle of {r} blocks", f"3^{r}", lambda m: 3**m, r, "splits")
    return NCSymElement._combine(_oracle_codes(_encode(part)).items())


antipode_oracle.cache_info = _oracle_codes.cache_info
antipode_oracle.cache_clear = _oracle_codes.cache_clear

_ANTIPODE_METHODS = {
    "direct": antipode_direct,
    "factored": antipode_factored,
    "oracle": antipode_oracle,
}


def antipode(x, method="factored"):
    """Antipode of an element; ``method`` picks the per-partition formula."""
    try:
        on_partition = _ANTIPODE_METHODS[method]
    except KeyError:
        raise ValueError(f"unknown antipode method {method!r}") from None
    # The default route runs on the element's codes.  The referees, and a
    # route rebound in the table alone, take each nonempty term as a
    # partition, which keeps them independent of the code kernel.
    if on_partition is antipode_factored:
        return NCSymElement._wrap(_factored_codes(x._terms))
    return NCSymElement._combine(
        (q, coeff * c)
        for code, coeff in x._terms.items()
        for q, c in on_partition(_decode(code))._terms.items()
    )


def _require_primitive_input(part):
    _require_standard(part, "primitive")
    if part.weight == 0:
        raise ValueError("primitive is undefined on the empty partition")


def primitive(part):
    """Signed sum over the compositions anchored at 1, taken by first parts.

    primitive(A) = sum over the block sets K holding block 1 of
    std(A|K) * S(std(A|rest)), with S the antipode and S(empty) = 1: split
    each anchored composition into its first part K and a composition of the
    rest, whose signed sum is S(std(A|rest)).  Runs on the default route's
    code kernel and its per-call memo: 2^(r-1) head/tail pairs for r blocks,
    against Fubini(r-1)-sized sums for the anchored compositions, and at
    most 3^r splits in all, which are checked against the work limit first.

    Nonzero (and primitive) exactly when the input is atomic; zero for every
    other nonempty standard partition.  Undefined on the empty partition.
    """
    _require_primitive_input(part)
    r = part.length
    _check_growth(f"primitive of {r} blocks", f"3^{r}", lambda m: 3**m, r, "splits")
    _, first_part_sum = _kernel()
    return NCSymElement._wrap(first_part_sum(_encode(part), True, 1))


def _primitive_anchored(part):
    """``primitive`` by the full signed sum over the compositions anchored at
    1: the referee of the first-part route in ``verify`` and the tests."""
    _require_primitive_input(part)
    r = part.length
    what, formula = f"_primitive_anchored of {r} blocks", f"2·Fubini({r - 1})"
    _check_growth(what, formula, lambda m: 2 * fubini_numbers(m)[m], r - 1, "compositions")
    return NCSymElement._combine(
        (_encode(gamma.evaluate(part)), 1 if gamma.length % 2 else -1)
        for gamma in anchored_compositions(r)
    )


def reduced_coproduct(x):
    """Coproduct minus the two unit tensor legs; zero iff x is primitive."""
    if counit(x) != 0:
        raise ValueError("reduced coproduct needs counit zero")
    extra = []
    for code, coeff in x._terms.items():
        extra += [((code, b""), -coeff), ((b"", code), -coeff)]
    return coproduct(x) + TensorElement._combine(extra)


def convolve(left_map, right_map, part):
    """m (f tensor g) Delta on a basis partition; the maps send partitions to
    elements."""
    return NCSymElement._combine(
        (key, coeff * c)
        for (p, q), coeff in coproduct(NCSymElement.from_partition(part))._decoded()
        for key, c in (left_map(p) * right_map(q))._terms.items()
    )


def atom_key(part):
    """Order key on atomic partitions: heavier first, then shorthand order.

    Any refinement of the weight-reversed order keeps the leading-term
    property; the string tie-break just pins determinism.
    """
    return (-part.weight, part.sort_key())


def partition_key(part):
    """Lexicographic extension of the atom order along atomic factorizations."""
    return tuple(atom_key(atom) for atom in part.atoms())


def leading_term(x):
    """(partition, coefficient) at the minimum of the support in the atom
    order."""
    if x.is_zero():
        raise ValueError("the zero element has no leading term")
    return min(x._decoded(), key=lambda term: partition_key(term[0]))


def _expand_bracket(tree):
    if isinstance(tree, SetPartition):
        return primitive(tree)
    left, right = _expand_bracket(tree[0]), _expand_bracket(tree[1])
    return left * right - right * left


def hall_primitive(atoms):
    """Iterated commutator of primitive generators along the Hall bracketing.

    The atom word must be Lyndon in the atom order; a single atom gives its
    primitive generator back.
    """
    atoms = tuple(atoms)
    for atom in atoms:
        if not isinstance(atom, SetPartition) or not atom.is_standard() or not atom.is_atomic():
            raise ValueError(f"not an atomic standard partition: {atom!r}")
    if not is_lyndon(atoms, key=atom_key):
        raise ValueError("atom word is not Lyndon in the atom order")
    return _expand_bracket(hall_tree(atoms, key=atom_key))


def lyndon_atom_words(total_weight):
    """Lyndon words in the atom alphabet with the given total weight, in
    ``partition_key`` order.

    The product concatenates partitions, so each standard partition of the
    weight is exactly one word of atoms, its ``atoms()``; the words are read
    off the partitions whose key is Lyndon.  Their Bell(n) count is checked
    against the work limit first, which refuses weight 12 and up.
    """
    n = total_weight
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise ValueError(f"total weight must be a positive integer, got {n!r}")
    what = f"lyndon_atom_words of weight {n}"
    _check_growth(what, f"Bell({n})", lambda m: bell_numbers(m)[m], n, "partitions")
    return _lyndon_atom_words(set_partitions(n))


def _lyndon_atom_words(partitions):
    """``lyndon_atom_words`` given the weight's standard partitions."""
    keyed = sorted(((partition_key(part), part) for part in partitions), key=lambda pair: pair[0])
    return [part.atoms() for key, part in keyed if is_lyndon(key)]


def _split_count(m):
    """Σ 2^|A| over the partitions A of [m] (OEIS A001861): the splits taken
    by the reduced coproducts of the weight-m basis.  A partition with a set
    of its blocks is a partition of the set those blocks cover and one of the
    rest, so the count is Σ_k C(m, k) Bell(k) Bell(m - k)."""
    bell = bell_numbers(m)
    return sum(math.comb(m, k) * bell[k] * bell[m - k] for k in range(m + 1))


def _check_primitive_layer(what, n):
    """Refuse a weight ``n`` that is not a positive integer, or whose basis's
    reduced coproducts would take more splits than the work limit (from
    n = 10 on)."""
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise ValueError(f"weight must be a positive integer, got {n!r}")
    _check_growth(f"{what} of weight {n}", "Σ_A 2^|A|", _split_count, n, "splits")


def primitive_space_dimension(n):
    """Dimension of the primitive subspace of the weight-n component.

    Nullity of the reduced coproduct on the weight-n basis, by exact sparse
    elimination over the integers (``integer_rank``): 0.1 s at n = 7, about
    1 s at 8.  The Σ 2^|A| splits over the partitions A of [n] are checked
    against the work limit first, which refuses n >= 10.
    """
    _check_primitive_layer("primitive_space_dimension", n)
    return _primitive_space_dimension(set_partitions(n))


def _primitive_space_dimension(partitions):
    """``primitive_space_dimension`` given the weight's standard partitions."""
    rows = [reduced_coproduct(NCSymElement.from_partition(part))._terms for part in partitions]
    return len(rows) - integer_rank(rows)


def hall_span_check(n):
    """True when the weight-n Hall primitives are independent and span the
    primitive subspace.  Refused, before anything is enumerated, where
    ``primitive_space_dimension`` is."""
    _check_primitive_layer("hall_span_check", n)
    return _hall_span(n, lyndon_atom_words(n), primitive_space_dimension(n))


def _hall_span(n, words, dim):
    """``hall_span_check`` given the Lyndon atom words and the dimension: each
    word's Hall primitive is primitive and of weight n, and their exact rank
    is both their number and ``dim``.  Enumerates nothing."""
    elements = [hall_primitive(word) for word in words]
    for element in elements:
        if reduced_coproduct(element) or any(len(code) != n for code in element._terms):
            return False
    return integer_rank([element._terms for element in elements]) == len(elements) == dim


def _signed(x, order, body):
    """Sign-joined text of the terms of ``x`` sorted by ``order`` on decoded
    keys: the first sign bare, the others spaced, a magnitude of 1 left out."""
    pieces = []
    for key, coeff in sorted(x._decoded(), key=lambda kc: order(kc[0])):
        magnitude = abs(coeff)
        text = body(key) if magnitude == 1 else f"{magnitude}{body(key)}"
        if pieces:
            pieces.append(("- " if coeff < 0 else "+ ") + text)
        else:
            pieces.append(("-" if coeff < 0 else "") + text)
    return " ".join(pieces) or "0"


def format_element(x):
    """Text form: terms in atom order, sign-joined; a lone +1 term prints as
    the bare partition."""
    if list(x._terms.values()) == [1]:
        return _label(_decode(next(iter(x._terms))))
    return _signed(x, partition_key, lambda part: f"({_label(part)})")


def format_tensor(t):
    """Text form of a tensor combination, factors joined by the tensor sign."""
    return _signed(
        t,
        lambda pair: (partition_key(pair[0]), partition_key(pair[1])),
        lambda pair: f"({_label(pair[0])})\u2297({_label(pair[1])})",
    )
