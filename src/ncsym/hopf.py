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

The primitive generator of A, the signed sum over the compositions anchored
at 1, is computed as primitive(A) = sum over the block sets K holding block
1 of std(A|K) * S(std(A|rest)), with S(empty) = 1.  Proof: split each
anchored composition into its first part K and a composition of the rest;
the signed sum over those is the antipode of the rest, with the sign of the
first part moved onto it.  So ``primitive`` runs on the default antipode
route's kernel, and the anchored sum itself (``_primitive_anchored``)
referees it in ``verify`` and the tests.

Inside one atom the default route works on restricted growth strings (Knuth,
TAOCP 4A, 7.2.1.5) held as ``bytes``: byte i is the 0-based index, in
block-minima order, of the block holding i + 1, so 14.2.3 is
``bytes((0, 1, 2, 0))``.  Ordering blocks by their minima is exactly the
restricted-growth condition, so equal partitions have equal strings and
nothing needs sorting.  Keeping the blocks of a label set and standardizing
is one ``bytes.translate`` that ranks the kept labels and deletes the other
positions; concatenation appends the second string with its labels shifted
up by the first's block count.

Everything is exact: coefficients are Python ints, and the kernel
computations run on fraction-free integer elimination.

``NCSymElement`` and ``TensorElement`` share one private base,
``_Combination`` (arithmetic, equality, hash, text form); they stay two types
because their keys differ in check, order and product.

Elements are validated where they enter: the public constructors, which
``serialize`` decodes through, and the arguments of public functions.  Sums,
products, coproducts and antipodes are trusted: ``_Combination._combine``
builds them without re-checking their canonical keys.
"""

from __future__ import annotations

import collections
import functools
import itertools
import operator

from .linalg import integer_rank
from .setparts import (
    EMPTY_PARTITION,
    SetPartition,
    _label,
    anchored_compositions,
    atomic_set_partitions,
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

# Fubini(10) ~ 1.02e8 summands is the practical wall for the composition-sum
# formulas, which cap the total block count here; the default antipode route
# caps each atom's block count instead (3^10 = 59 049 head/tail pairs), which
# also keeps the labels of its byte strings below MAX_PARTS.  Larger inputs
# are rejected rather than left to run for hours.
MAX_PARTS = 10


def _check_basis_partition(part):
    if not isinstance(part, SetPartition):
        raise TypeError(f"term keys must be SetPartition, got {type(part).__name__}")
    if not part.is_standard():
        raise ValueError(f"element terms must be standard partitions, got {part!r}")


def _check_tensor_key(pair):
    if not (isinstance(pair, tuple) and len(pair) == 2):
        raise TypeError("tensor keys must be pairs of partitions")
    _check_basis_partition(pair[0])
    _check_basis_partition(pair[1])


def _summed(pairs):
    data = {}
    for key, coeff in pairs:
        data[key] = data.get(key, 0) + coeff
    # Deleting the cancelled keys in place hashes no surviving key again.
    for key in [key for key, c in data.items() if not c]:
        del data[key]
    return data


class _Combination:
    """Shared body of ``NCSymElement`` and ``TensorElement``: immutable integer
    combinations of keys, the subclass naming key check, order and product.
    No zero coefficient is stored; equality is term-map equality."""

    __slots__ = ("_terms",)

    def __init__(self, terms=()):
        pairs = terms.items() if hasattr(terms, "items") else terms
        self._terms = _summed(map(self._checked, pairs))

    def _checked(self, pair):
        key, coeff = pair
        self._check_key(key)
        if not isinstance(coeff, int) or isinstance(coeff, bool):
            raise TypeError(f"coefficients must be int, got {coeff!r}")
        return pair

    @classmethod
    def _combine(cls, pairs):
        """Trusted constructor: sums (key, int) pairs whose keys are canonical."""
        self = object.__new__(cls)
        self._terms = _summed(pairs)
        return self

    @classmethod
    def zero(cls):
        return cls()

    def coefficient(self, key):
        return self._terms.get(key, 0)

    def support(self):
        return sorted(self._terms, key=self._sort_key)

    def items(self):
        return [(key, self._terms[key]) for key in self.support()]

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
        return self._combine((key, -c) for key, c in self._terms.items())

    def __mul__(self, other):
        if isinstance(other, int) and not isinstance(other, bool):
            return self._combine((key, c * other) for key, c in self._terms.items())
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
    _check_key = staticmethod(_check_basis_partition)
    _sort_key = staticmethod(SetPartition.sort_key)
    _key_product = staticmethod(SetPartition._concat)

    @classmethod
    def from_partition(cls, part):
        return cls(((part, 1),))

    @classmethod
    def unit(cls):
        return cls._combine(((EMPTY_PARTITION, 1),))

    def weights(self):
        return sorted({part.weight for part in self._terms})

    def is_homogeneous(self):
        return len(self.weights()) <= 1


class TensorElement(_Combination):
    """Integer combination of ordered pairs of standard set partitions."""

    __slots__ = ()
    _check_key = staticmethod(_check_tensor_key)

    @staticmethod
    def _sort_key(pair):
        return pair[0].sort_key(), pair[1].sort_key()

    @staticmethod
    def _key_product(a, b):
        return a[0]._concat(b[0]), a[1]._concat(b[1])

    @classmethod
    def pure(cls, left, right, coeff=1):
        return cls((((left, right), coeff),))

    def twist(self):
        """Swap the tensor factors."""
        return self._combine(((q, p), c) for (p, q), c in self._terms.items())


def product(x, y):
    """Bilinear extension of partition concatenation; unit is the empty
    partition."""
    return x * y


def coproduct(x):
    """Sum of standardized block splits over ordered disjoint index unions.

    A basis partition with r blocks contributes 2^r terms, one per ordered
    pair (K, L) with K and L disjoint and covering {1..r}, including the
    empty sides.  Each term is encoded once and its splits taken as byte
    translates (see ``_all_splits``); equal (head, tail) code pairs are
    summed in one dict before any decoding, and each distinct code is
    decoded once.  Terms of more than 255 blocks are refused, so that every
    label and block count fits a byte.
    """
    widest = max((part.length for part in x._terms), default=0)
    if widest > 255:
        raise ValueError(f"partition has {widest} blocks; the coproduct supports at most 255")
    tables = _split_tables(min(widest, MAX_PARTS))
    splits = {}
    for part, coeff in x._terms.items():
        heads = _all_splits(_encode(part), part.length, tables)
        # The tail of label mask K is the head of its complement, which runs
        # down as K runs up.
        for pair in zip(heads, reversed(heads)):
            splits[pair] = splits.get(pair, 0) + coeff
    decoded = {code: _decode(code) for code in set(itertools.chain.from_iterable(splits))}
    return TensorElement._combine(
        ((decoded[head], decoded[tail]), c) for (head, tail), c in splits.items()
    )


def counit(x):
    """Coefficient of the empty partition."""
    return x.coefficient(EMPTY_PARTITION)


def _require_standard(part, what):
    if not isinstance(part, SetPartition):
        raise TypeError(f"{what} expects a SetPartition")
    if not part.is_standard():
        raise ValueError(f"{what} requires a standard partition")


def _require_small(part):
    if part.length > MAX_PARTS:
        raise ValueError(
            f"partition has {part.length} blocks; composition sums support at most {MAX_PARTS}"
        )


def antipode_direct_terms(part):
    """Uncombined signed terms of the antipode: one per set composition of
    the block indices, before any cancellation."""
    _require_standard(part, "antipode")
    _require_small(part)
    for gamma in set_compositions(part.length):
        yield (-1) ** gamma.length, gamma.evaluate(part)


def antipode_direct(part):
    """Antipode of a basis partition by the full signed composition sum."""
    return NCSymElement._combine((p, sign) for sign, p in antipode_direct_terms(part))


def _encode(part):
    """Restricted growth string of a standard partition: byte i is the index,
    in block-minima order, of the block holding i + 1."""
    code = bytearray(part.weight)
    for label, block in enumerate(part.blocks):
        for e in block:
            code[e - 1] = label
    return bytes(code)


def _decode(code):
    """Standard partition of a restricted growth string."""
    blocks = [[] for _ in range(max(code, default=-1) + 1)]
    for i, label in enumerate(code, 1):
        blocks[label].append(i)
    return SetPartition._of(tuple(map(tuple, blocks)))


# _SHIFT[k] adds k to every label byte, _UNSHIFT[k] subtracts it.  Kernel
# labels stay below MAX_PARTS, so no sum wraps past 255.
_SHIFT = [bytes(range(k, 256)) + bytes(range(k)) for k in range(MAX_PARTS + 1)]
_UNSHIFT = [bytes(range(256 - k, 256)) + bytes(range(256 - k)) for k in range(MAX_PARTS)]


def _code_atoms(code, labels):
    """Atoms of a restricted growth string with ``labels`` blocks, each
    relabelled from 0: a cut falls before the first use of a label when no
    earlier label is used again after it."""
    pieces = []
    start = base = 0
    reach = code.rfind(0)
    for label in range(1, labels):
        first = code.find(label)
        if first > reach:
            pieces.append(code[start:first].translate(_UNSHIFT[base]))
            start, base = first, label
        reach = max(reach, code.rfind(label))
    pieces.append(code[start:].translate(_UNSHIFT[base]))
    return pieces


def _split_tables(labels):
    """Per label mask K below 2^labels: the table that ranks K's labels and
    the bytes of the labels outside K, so that ``code.translate(*tables[K])``
    is std(A|K) for any code with at most ``labels`` labels.  A label past
    ``labels`` is shifted down to follow K's labels, so a code whose higher
    labels were already split (``_all_splits``) keeps them in order."""
    identity = _SHIFT[0]
    ranks, drops = [b""], [b""]
    for label in range(labels):
        # A label's rank under mask K is the number of K's labels below it.
        ranks = [
            r + identity[label - len(d) : label - len(d) + 1] for r, d in zip(ranks, drops)
        ] * 2
        drops = [d + identity[label : label + 1] for d in drops] + drops
    return [(r + identity[labels - len(d) : 256 - len(d)], d) for r, d in zip(ranks, drops)]


def _split_table(labels, mask):
    """The translate arguments that keep the labels in ``mask``, ranked, and
    delete the others: one table, built alone."""
    kept = bytes(label for label in range(labels) if mask >> label & 1)
    drop = bytes(label for label in range(labels) if not mask >> label & 1)
    return bytes.maketrans(kept, bytes(range(len(kept)))), drop


def _all_splits(code, labels, tables):
    """std(A|K) for every label mask K below 2^labels, in increasing order,
    given ``_split_tables(min(labels, MAX_PARTS))`` or a larger such set.

    The tables of the low ``MAX_PARTS`` labels are applied after each split of
    the higher labels, whose tables are built one at a time: tables in memory
    stay bounded by 2^MAX_PARTS, however many blocks."""
    low = min(labels, MAX_PARTS)
    highs = range((1 << low) - 1, 1 << labels, 1 << low)  # every low label kept
    parts = (
        (code.translate(*_split_table(labels, high)) for high in highs) if labels > low else (code,)
    )
    tables = tables[: 1 << low]
    return [part.translate(*table) for part in parts for table in tables]


def _kernel(widest):
    """The default route's antipode on restricted growth strings of at most
    ``widest`` labels, memoized for one call.

    Returns ``antipode_of(code)``, a dict of codes to coefficients, and
    ``first_part_sum(code, anchored, sign)``: sign times the sum over the
    nonempty label sets K of std(A|K) * S(std(A|rest)), K running over the
    sets holding label 0 only when ``anchored``.  Equal (head, tail) splits are
    combined first; a product is ``head + q`` with q's labels shifted up.
    """
    memo = {b"": {b"": 1}}
    tables = _split_tables(widest)

    def first_part_sum(code, anchored, sign):
        subs = [code.translate(*tables[mask]) for mask in range(1 << (max(code) + 1))]
        # (std(A|K), std(A|rest)) for each K: the mask of rest is the
        # all-labels mask minus K, which runs down as K runs up; the masks
        # holding label 0 are the odd ones.
        step = 2 if anchored else 1
        splits = collections.Counter(zip(subs[1::step], subs[-2::-step]))
        return _summed(
            (head + q.translate(_SHIFT[max(head) + 1]), sign * coeff * c)
            for (head, tail), coeff in splits.items()
            for q, c in antipode_of(tail).items()
        )

    def antipode_of(code):
        got = memo.get(code)
        if got is not None:
            return got
        pieces = _code_atoms(code, max(code) + 1)
        if len(pieces) == 1:
            got = first_part_sum(code, False, -1)
        else:
            got = {b"": 1}
            for piece in pieces:
                got = {
                    x + y.translate(_SHIFT[max(x) + 1]): cx * cy
                    for x, cx in antipode_of(piece).items()
                    for y, cy in got.items()
                }
        memo[code] = got
        return got

    return antipode_of, first_part_sum


def antipode_factored(part):
    """Antipode by atoms: the default route.

    S is an antimorphism over the atomic splitting, S(A) = S(A_t)...S(A_1).
    An atom's antipode is its signed composition sum, taken by recursion on
    the first part K: S(A) = -sum over nonempty K of std(A|K) * S(std(A|rest)),
    with equal (head, tail) splits combined and each tail's antipode again by
    atoms.  Every partition met is a standardized sub-partition of one input
    atom, memoized for this call only, so an atom of r blocks costs at most
    3^r head/tail pairs and a many-atom input the sum of its atoms' costs.

    The per-atom recursion runs on restricted growth strings held as
    ``bytes`` (see ``_encode``), which are canonical by construction: a
    head or tail is one ``bytes.translate`` that ranks the kept labels and
    deletes the other positions, a product is ``head + q`` with q's labels
    shifted up, and no partition is sorted or checked inside.  Labels stay
    below ``MAX_PARTS`` whatever the weight, because inputs with an atom of
    more than ``MAX_PARTS`` blocks are refused before any work; each atom's
    result is decoded to partitions once.  Nonempty input required (the
    element-level wrapper covers the unit).
    """
    _require_standard(part, "antipode")
    if part.weight == 0:
        raise ValueError("use the element-level antipode for the empty partition")
    atoms = part.atoms()
    widest = max(atom.length for atom in atoms)
    if widest > MAX_PARTS:
        raise ValueError(
            f"partition has an atom of {widest} blocks; "
            f"the factored antipode supports atoms of at most {MAX_PARTS}"
        )
    antipode_of, _ = _kernel(widest)
    factors = (
        NCSymElement._combine((_decode(q), c) for q, c in antipode_of(_encode(atom)).items())
        for atom in reversed(atoms)
    )
    return functools.reduce(operator.mul, factors)


@functools.cache
def antipode_oracle(part):
    """Graded-connected recursion for the antipode, memoized.

    S(empty) = empty; otherwise S(A) = -A - sum of S(A') * A'' over the
    coproduct terms with both sides nonempty.  Independent of the
    composition-sum formulas, so it can referee them.  The memo table only
    ever inserts, so concurrent duplicated computation is harmless.
    """
    _require_standard(part, "antipode")
    if part.weight == 0:
        return NCSymElement.unit()
    pairs = [(part, -1)]
    for (left, right), coeff in coproduct(NCSymElement.from_partition(part))._terms.items():
        if left.weight and right.weight:
            pairs += [
                (q._concat(right), -coeff * c) for q, c in antipode_oracle(left)._terms.items()
            ]
    return NCSymElement._combine(pairs)


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
    return NCSymElement._combine(
        (q, coeff * c)
        for part, coeff in x._terms.items()
        for q, c in (on_partition(part) if part.weight else NCSymElement.unit())._terms.items()
    )


def _require_primitive_input(part):
    _require_standard(part, "primitive")
    if part.weight == 0:
        raise ValueError("primitive is undefined on the empty partition")
    _require_small(part)


def primitive(part):
    """Signed sum over the compositions anchored at 1, taken by first parts.

    primitive(A) = sum over the block sets K holding block 1 of
    std(A|K) * S(std(A|rest)), with S the antipode and S(empty) = 1: split
    each anchored composition into its first part K and a composition of the
    rest, whose signed sum is S(std(A|rest)).  Runs on the default route's
    byte-string kernel and its per-call memo: 2^(r-1) head/tail pairs for r
    blocks, against Fubini(r-1)-sized sums for the anchored compositions.

    Nonzero (and primitive) exactly when the input is atomic; zero for every
    other nonempty standard partition.  Undefined on the empty partition.
    """
    _require_primitive_input(part)
    _, first_part_sum = _kernel(part.length)
    return NCSymElement._combine(
        (_decode(q), c) for q, c in first_part_sum(_encode(part), True, 1).items()
    )


def _primitive_anchored(part):
    """``primitive`` by the full signed sum over the compositions anchored at
    1: the referee of the first-part route in ``verify`` and the tests."""
    _require_primitive_input(part)
    return NCSymElement._combine(
        (gamma.evaluate(part), 1 if gamma.length % 2 else -1)
        for gamma in anchored_compositions(part.length)
    )


def reduced_coproduct(x):
    """Coproduct minus the two unit tensor legs; zero iff x is primitive."""
    if counit(x) != 0:
        raise ValueError("reduced coproduct needs counit zero")
    extra = []
    for part, coeff in x.items():
        extra.append(((part, EMPTY_PARTITION), -coeff))
        extra.append(((EMPTY_PARTITION, part), -coeff))
    return coproduct(x) + TensorElement._combine(extra)


def convolve(left_map, right_map, part):
    """m (f tensor g) Delta on a basis partition; the maps send partitions to
    elements."""
    return NCSymElement._combine(
        (key, coeff * c)
        for (p, q), coeff in coproduct(NCSymElement.from_partition(part))._terms.items()
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
    part = min(x.support(), key=partition_key)
    return part, x.coefficient(part)


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
    """Lyndon words in the atom alphabet with the given total weight."""
    if not isinstance(total_weight, int) or total_weight < 1:
        raise ValueError(f"total weight must be a positive integer, got {total_weight!r}")
    atoms_by_weight = {
        w: list(atomic_set_partitions(w)) for w in range(1, total_weight + 1)
    }
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


def primitive_space_dimension(n):
    """Dimension of the primitive subspace of the weight-n component.

    Nullity of the reduced coproduct on the weight-n basis, by exact
    integer elimination.  Intended for desk scale (n <= 6 runs comfortably).
    """
    if not isinstance(n, int) or n < 1:
        raise ValueError(f"weight must be a positive integer, got {n!r}")
    basis = list(set_partitions(n))
    columns = {}
    sparse_rows = []
    for part in basis:
        row = {}
        reduced = reduced_coproduct(NCSymElement.from_partition(part))
        for pair, coeff in reduced.items():
            col = columns.setdefault(pair, len(columns))
            row[col] = coeff
        sparse_rows.append(row)
    matrix = [[row.get(j, 0) for j in range(len(columns))] for row in sparse_rows]
    if not columns:
        return len(basis)
    return len(basis) - integer_rank(matrix)


def hall_span_check(n):
    """True when the weight-n Hall primitives are independent and span the
    primitive subspace."""
    words = lyndon_atom_words(n)
    elements = [hall_primitive(word) for word in words]
    for element in elements:
        if reduced_coproduct(element):
            return False
    index = {part: i for i, part in enumerate(set_partitions(n))}
    matrix = []
    for element in elements:
        row = [0] * len(index)
        for part, coeff in element.items():
            if part.weight != n:
                return False
            row[index[part]] = coeff
        matrix.append(row)
    return integer_rank(matrix) == len(elements) == primitive_space_dimension(n)


def _signed(x, order, body):
    """Sign-joined text of the terms of ``x`` sorted by ``order`` on keys:
    the first sign bare, the others spaced, a magnitude of 1 left out."""
    pieces = []
    for key, coeff in sorted(x._terms.items(), key=lambda kc: order(kc[0])):
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
        return _label(next(iter(x._terms)))
    return _signed(x, partition_key, lambda part: f"({_label(part)})")


def format_tensor(t):
    """Text form of a tensor combination, factors joined by the tensor sign."""
    return _signed(
        t,
        lambda pair: (partition_key(pair[0]), partition_key(pair[1])),
        lambda pair: f"({_label(pair[0])})\u2297({_label(pair[1])})",
    )
