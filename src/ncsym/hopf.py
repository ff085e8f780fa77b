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

Everything is exact: coefficients are Python ints, and the kernel
computations run on fraction-free integer elimination.

Elements are validated where they enter: the public constructors, which
``serialize`` decodes through, and the arguments of public functions.  Sums,
products, coproducts and antipodes are trusted: ``_Combination._combine``
builds them without re-checking their canonical keys.
"""

from __future__ import annotations

import functools
import itertools

from .linalg import integer_rank
from .setparts import (
    EMPTY_PARTITION,
    SetPartition,
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
# caps each atom's block count instead (3^10 = 59 049 head/tail pairs).
# Larger inputs are rejected rather than left to run for hours.
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
    return {key: c for key, c in data.items() if c}


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


class NCSymElement(_Combination):
    """Integer linear combination of standard set partitions."""

    __slots__ = ()
    _check_key = staticmethod(_check_basis_partition)
    _sort_key = staticmethod(SetPartition.sort_key)
    _key_product = staticmethod(SetPartition.concat)

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

    def __str__(self):
        return format_element(self)

    def __repr__(self):
        return f"NCSymElement<{format_element(self)}>"


class TensorElement(_Combination):
    """Integer combination of ordered pairs of standard set partitions."""

    __slots__ = ()
    _check_key = staticmethod(_check_tensor_key)

    @staticmethod
    def _sort_key(pair):
        return pair[0].sort_key(), pair[1].sort_key()

    @staticmethod
    def _key_product(a, b):
        return a[0].concat(b[0]), a[1].concat(b[1])

    @classmethod
    def pure(cls, left, right, coeff=1):
        return cls((((left, right), coeff),))

    def twist(self):
        """Swap the tensor factors."""
        return self._combine(((q, p), c) for (p, q), c in self._terms.items())

    def __str__(self):
        return format_tensor(self)

    def __repr__(self):
        return f"TensorElement<{format_tensor(self)}>"


def product(x, y):
    """Bilinear extension of partition concatenation; unit is the empty
    partition."""
    return x * y


def coproduct(x):
    """Sum of standardized block splits over ordered disjoint index unions.

    A basis partition with r blocks contributes 2^r terms, one per ordered
    pair (K, L) with K and L disjoint and covering {1..r}, including the
    empty sides.
    """
    out = []
    for part, coeff in x.items():
        blocks = part.blocks
        for k in range(len(blocks) + 1):
            for left in itertools.combinations(blocks, k):
                right = tuple(b for b in blocks if b not in left)
                key = (
                    SetPartition._of(left).standardize(),
                    SetPartition._of(right).standardize(),
                )
                out.append((key, coeff))
    return TensorElement._combine(out)


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


def antipode_factored(part):
    """Antipode by atoms: the default route.

    S is an antimorphism over the atomic splitting, S(A) = S(A_t)...S(A_1).
    An atom's antipode is its signed composition sum, taken by recursion on
    the first part K: S(A) = -sum over nonempty K of std(A|K) * S(std(A|rest)),
    with the splits read off the coproduct (equal ones already combined) and
    each tail's antipode again by atoms.  Every partition met is a standardized
    sub-partition of the input, memoized for this call only, so an atom of r
    blocks costs at most 3^r head/tail pairs and a many-atom input the sum of
    its atoms' costs.  Inputs with an atom of more than ``MAX_PARTS`` blocks
    are refused before any enumeration; nonempty input required (the
    element-level wrapper covers the unit).
    """
    _require_standard(part, "antipode")
    if part.weight == 0:
        raise ValueError("use the element-level antipode for the empty partition")
    widest = max(atom.length for atom in part.atoms())
    if widest > MAX_PARTS:
        raise ValueError(
            f"partition has an atom of {widest} blocks; "
            f"the factored antipode supports atoms of at most {MAX_PARTS}"
        )
    memo = {}

    def value(p):
        if p not in memo:
            atoms = p.atoms()
            if len(atoms) == 1:
                # Coproduct terms with a nonempty left side are the first
                # parts K, each paired with its standardized tail.
                splits = coproduct(NCSymElement.from_partition(p))._terms.items()
                memo[p] = NCSymElement._combine(
                    (head.concat(q), -coeff * c)
                    for (head, tail), coeff in splits
                    if head.weight
                    for q, c in value(tail)._terms.items()
                )
            else:
                total = NCSymElement.unit()
                for atom in atoms:
                    total = value(atom) * total
                memo[p] = total
        return memo[p]

    return value(part)


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
    total = -NCSymElement.from_partition(part)
    for (left, right), coeff in coproduct(NCSymElement.from_partition(part)).items():
        if left.weight == 0 or right.weight == 0:
            continue
        total = total - coeff * (antipode_oracle(left) * NCSymElement.from_partition(right))
    return total


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
    total = NCSymElement.zero()
    for part, coeff in x.items():
        piece = NCSymElement.unit() if part.weight == 0 else on_partition(part)
        total = total + coeff * piece
    return total


def primitive(part):
    """Signed sum over the compositions anchored at 1.

    Nonzero (and primitive) exactly when the input is atomic; zero for every
    other nonempty standard partition.  Undefined on the empty partition.
    """
    _require_standard(part, "primitive")
    if part.weight == 0:
        raise ValueError("primitive is undefined on the empty partition")
    _require_small(part)
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
    total = NCSymElement.zero()
    for (p, q), coeff in coproduct(NCSymElement.from_partition(part)).items():
        total = total + coeff * (left_map(p) * right_map(q))
    return total


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


def _label(part):
    return part.format() or chr(0x2205)


def format_element(x):
    """Text form: terms in atom order, sign-joined; a lone +1 term prints as
    the bare partition."""
    if x.is_zero():
        return "0"
    ordered = sorted(x.items(), key=lambda pc: partition_key(pc[0]))
    if len(ordered) == 1 and ordered[0][1] == 1:
        return _label(ordered[0][0])
    pieces = []
    for part, coeff in ordered:
        magnitude = abs(coeff)
        body = f"({_label(part)})" if magnitude == 1 else f"{magnitude}({_label(part)})"
        if not pieces:
            pieces.append(("-" if coeff < 0 else "") + body)
        else:
            pieces.append(("- " if coeff < 0 else "+ ") + body)
    return " ".join(pieces)


def format_tensor(t):
    """Text form of a tensor combination, factors joined by the tensor sign."""
    if t.is_zero():
        return "0"
    ordered = sorted(
        t.items(), key=lambda pc: (partition_key(pc[0][0]), partition_key(pc[0][1]))
    )
    pieces = []
    for (p, q), coeff in ordered:
        magnitude = abs(coeff)
        body = f"({_label(p)}){chr(0x2297)}({_label(q)})"
        if magnitude != 1:
            body = f"{magnitude}{body}"
        if not pieces:
            pieces.append(("-" if coeff < 0 else "") + body)
        else:
            pieces.append(("- " if coeff < 0 else "+ ") + body)
    return " ".join(pieces)
