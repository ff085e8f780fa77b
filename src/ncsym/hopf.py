"""The graded Hopf algebra of set partitions in the powersum basis.

Elements are finitely supported integer combinations of standard set
partitions.  The product concatenates basis partitions; the coproduct sums
standardized splits of the block set over all ordered disjoint unions of the
block indices.  The antipode comes in three forms: the full signed sum over
set compositions; the default route by atoms, which applies the antipode as
an antimorphism over the atomic splitting and evaluates each atom's
composition sum by recursion on its last part (at most 3^r head/tail pairs
for an atom of r blocks, against Fubini(r) compositions, and none for a
single block, whose antipode is its negative since it is primitive), every
head's splits and atoms read by label mask off the atom's one table of 2^r
splits; and a memoized graded-connected recursion used as an independent
oracle.  The
primitive generators, their leading-term order, and the Hall bracket basis
of the primitive Lie algebra live here too.

Each route predicts its work from the block count r and refuses, before any
work, a call whose prediction exceeds ``setparts.WORK_LIMIT`` (10^6): 2^r
splits for each coproduct term, 3^r for each atom on the default route, for
the oracle, for ``primitive`` and for each letter of ``hall_primitive`` (all
four by ``_check_splits``), Fubini(r) compositions for the full sum,
and 2 Fubini(r - 1) for the anchored sum.  The default route also refuses a
product over the atoms whose Π|S(atom)| terms exceed the limit, before it
multiplies, and ``hall_primitive`` a word of k letters whose expansion could
reach 2^(k-1)·Π|P(letter)| terms past it, before any bracket.  The
primitive layer predicts from the weight n: Bell(n) partitions for the
Lyndon atom words, and Σ 2^|A| reduced-coproduct splits over the partitions
A of [n] for the primitive-space dimension and the Hall span.

The primitive generator of A, the signed sum over the compositions anchored
at 1, is computed as primitive(A) = sum over the block sets K holding block
1 of std(A|K) * S(std(A|rest)), with S(empty) = 1.  Proof: split each
anchored composition into its first part K and a composition of the rest;
the signed sum over those is the antipode of the rest, with the sign of the
first part moved onto it.  So ``primitive`` runs on the default antipode
route's kernel, which keeps this first-part sum for primitives beside the
last-part sum it takes each atom's antipode by, since the primitive needs S
on the right factor; the anchored sum itself (``_primitive_anchored``)
referees it in ``verify`` and the tests.  Every primitive is taken from one
private source, ``_primitives()``: built on one kernel, it maps a partition,
or a Hall tree of atoms, to its element and keeps each leaf and each bracket
subtree for its lifetime.  ``primitive`` and ``hall_primitive`` read a fresh
source per call, after their checks on the letters (``hall_primitive`` then
predicts its word's size from the letters' primitives); the Hall span and
``verify``'s unitriangular check read one source for all their trusted atoms.

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
positions and moves every higher label down by one (``_all_splits``), so
entry i keeps i.bit_count() labels and the default route reads each head's
block count off its index.  Restriction and standardization compose, so
the splits of the head at label mask J are the entries at J's sub-masks:
the default route splits each atom once and reads every head below it by
mask, cutting a head into atoms from each label's first and last positions
(``_kernel``).  The product appends the second code with its labels shifted
up by the first's block count.

``NCSymElement`` and ``TensorElement`` share one private base,
``_Combination`` (arithmetic, equality, hash, text form), whose terms are
keyed by codes: one per ``NCSymElement`` term, a pair per ``TensorElement``
term.  Partitions are made only at the boundary, and every entry point that
takes one checks and encodes it through ``_basis_code``, the one input
check: the public constructors (which ``serialize`` decodes through),
``from_partition``, ``pure``, the antipode routes, ``primitive`` and
``_primitive_anchored``; ``coefficient`` answers 0 for a key it refuses.
``items``, ``support`` and the text forms sort the terms on their codes, by
``_code_text`` (the extended-form string, ``SetPartition.sort_key``) or
``_code_order`` (the atom order, ``partition_key``), both built without a
partition, and decode each distinct code once, after sorting; the text forms,
the Lyndon atom words and ``verify``'s unitriangular basis build each
distinct atom's text once per call, in a cache that dies with the call.  The
maps handed to ``convolve`` decode each distinct code once per call.  Sums,
products, coproducts, antipodes and primitives stay codes and are trusted:
``_Combination._combine`` and ``_wrap`` build them without re-checking.
``_combine`` sums and drops the zeros in one scan; ``_wrap`` takes over a
dict that must hold no zero and scans nothing, so a caller that can make a
zero (a scalar 0, a coproduct's cancelled splits) drops it first.  The
coproduct's splits are summed on codes (``_coproduct_codes``), which
``reduced_coproduct`` and the oracle read directly, with no element in
between.  The default antipode runs from an element's codes to its kernel
(``_factored_codes``) without a partition; only the ``direct`` and
``oracle`` referees take each term as a partition.

Everything is exact: coefficients are Python ints, and the primitive-space
dimensions come from sparse elimination over the integers on the
reduced-coproduct maps themselves (``linalg.integer_rank``).
"""

from __future__ import annotations

import functools
import itertools
import math

from .linalg import integer_rank
from .setparts import (
    SetPartition,
    _check_growth,
    _check_work,
    _checked_size,
    _label,
    anchored_compositions,
    bell_numbers,
    fubini_numbers,
    set_compositions,
    set_partitions,
)
from .words import _hall_tree, is_lyndon

__all__ = [
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
    return max(code) + 1 if code else 0


# _SHIFT[k] adds k to every label byte, and _SHIFT[-k] subtracts it.
_IDENTITY = bytes(range(256))
_SHIFT = [_IDENTITY[k:] + _IDENTITY[:k] for k in range(256)]


def _code_text(code):
    """Extended-form text of a code's partition, ``SetPartition.sort_key``
    built straight from the code: a weight over 9 in singletons ends in ','."""
    blocks = [[] for _ in range(_blocks(code))]
    for i, label in enumerate(code, 1):
        blocks[label].append(str(i))
    text = ".".join(map(",".join, blocks))
    return text + "," if len(code) > 9 and len(blocks) == len(code) else text


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
    decoded and multiplied.  No zero coefficient is stored; equality
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
        """Trusted constructor: sums (code, int) pairs, dropping the zeros."""
        return cls._wrap(_summed(pairs))

    @classmethod
    def _wrap(cls, data):
        """Trusted constructor that takes over a dict of codes to ints, which
        must hold no zero: it is not scanned."""
        self = object.__new__(cls)
        self._terms = data
        return self

    @classmethod
    def zero(cls):
        return cls()

    def coefficient(self, key):
        """The coefficient of ``key``; 0 for a key no term could have.  An
        unhashable key raises ``TypeError``, as a dict lookup would."""
        hash(key)
        try:
            return self._terms.get(self._key_code(key), 0)
        except (TypeError, ValueError):
            return 0

    def support(self):
        return [key for key, _ in self.items()]

    def items(self):
        return self._decoded(_code_text)

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
            return self._wrap({key: c * other for key, c in self._terms.items()} if other else {})
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
    _key_product = staticmethod(_concat)

    def _decoded(self, order=None):
        """The terms as (partition, coefficient) pairs, sorted by ``order``
        on their codes when it is given, decoded after sorting."""
        terms = self._terms.items()
        if order is not None:
            terms = sorted(terms, key=lambda kc: order(kc[0]))
        return [(_decode(code), c) for code, c in terms]

    @classmethod
    def from_partition(cls, part):
        # One term, checked once: nothing to sum or scan.
        self = object.__new__(cls)
        self._terms = dict((self._checked((part, 1)),))
        return self

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

    def _decoded(self, order=None):
        """The terms as ((left, right), coefficient) pairs, sorted by ``order``
        on each side's code when it is given; each distinct code is ordered
        and decoded once."""
        codes = set(itertools.chain.from_iterable(self._terms))
        terms = self._terms.items()
        if order is not None:
            keys = {code: order(code) for code in codes}
            terms = sorted(terms, key=lambda kc: (keys[kc[0][0]], keys[kc[0][1]]))
        parts = {code: _decode(code) for code in codes}
        return [((parts[a], parts[b]), c) for (a, b), c in terms]

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


def _coproduct_codes(terms):
    """The coproduct on a map of codes to coefficients: a new dict of (head,
    tail) code pairs to coefficients, which may hold zeros.  A term whose 2^r
    splits exceed the work limit is refused first (and so is any term past
    255 blocks, whose labels would not fit a byte)."""
    r = max(map(_blocks, terms), default=0)
    _check_growth(lambda m: 2**m, r, "coproduct of {0} blocks: predicted 2^{0} {count} splits", r)
    splits = {}
    for code, coeff in terms.items():
        heads = _all_splits(code)
        # The tail of entry i is the head of its complement, entry 2^r - 1 - i,
        # which runs down as i runs up.
        for pair in zip(heads, reversed(heads)):
            splits[pair] = splits.get(pair, 0) + coeff
    return splits


def coproduct(x):
    """Sum of standardized block splits over ordered disjoint index unions.

    A basis partition with r blocks contributes 2^r terms, one per ordered
    pair (K, L) with K and L disjoint and covering {1..r}, including the
    empty sides.  Each term's splits are taken as byte translates of its code
    (see ``_all_splits``), and equal (head, tail) code pairs are summed in one
    dict (``_coproduct_codes``), which refuses a term past the work limit.
    """
    return TensorElement._wrap(_nonzero(_coproduct_codes(x._terms)))


def _check_splits(what, r):
    """Refuse ``what`` of ``r`` blocks, before any work, when its 3^r splits
    exceed the work limit: the one prediction of the default route, the
    oracle, ``primitive`` and ``hall_primitive``."""
    _check_growth(lambda m: 3**m, r, "{0} of {1} blocks: predicted 3^{1} {count} splits", what, r)


def counit(x):
    """Coefficient of the empty partition."""
    return x._terms.get(b"", 0)


def antipode_direct_terms(part):
    """Uncombined signed terms of the antipode: one per set composition of
    the block indices, before any cancellation.  The Fubini(r) compositions
    of r blocks are checked against the work limit when this is called."""
    r = _blocks(_basis_code(part))
    message = "antipode_direct of {0} blocks: predicted Fubini({0}) {count} compositions"
    _check_growth(lambda m: fubini_numbers(m)[m], r, message, r)
    return (((-1) ** gamma.length, gamma.evaluate(part)) for gamma in set_compositions(r))


def antipode_direct(part):
    """Antipode of a basis partition by the full signed composition sum,
    evaluated on partitions, independently of the code kernel it referees."""
    return NCSymElement._combine((_encode(p), sign) for sign, p in antipode_direct_terms(part))


def _code_atoms(code):
    """Atoms of a nonempty code, each relabelled from 0: a cut falls before
    the first use of a label when no earlier label is used again after it.
    A code ending in label 0 is one atom, its first block reaching the end;
    any other tuple code is cut by ``SetPartition.atoms``."""
    if code[-1] == 0:
        return [code]
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


def _code_cut(code):
    """Atoms of a nonempty code by ``_code_atoms``, or () with no scan when
    its labels never decrease: then every block is an atom."""
    return () if sorted(code) == list(code) else _code_atoms(code)


def _kernel():
    """The default route's antipode on codes, memoized for one call.

    Returns ``antipode_of(code, pieces=None)``, a dict of codes to
    coefficients, where ``pieces`` may hand over the code's ``_code_cut``
    when the caller has already cut it, and ``first_part_sum(code)``, the
    anchored sum over the label sets K holding label 0 of std(A|K) *
    S(std(A|rest)), which a primitive needs with S on the right factor.  An
    atom's antipode is taken by its last part, the same m(S ⊗ id)Δ = ε
    recursion read from the other side: S(A) = -sum over K short of all
    labels of S(std(A|K)) * std(A|rest).  Each sum is seeded with its empty
    side's term, S(empty) = 1: -A for the last-part sum, +A for the
    first-part sum.

    Each atom of the input, and each code given a first-part sum, is split
    once into its table of 2^r splits (``_all_splits``), and every head met
    below it is read off that table by its label mask J: restriction and
    standardization compose, so the splits of std(A|J) are the table's
    entries at the sub-masks H of J, head std(A|H) and tail std(A|J ^ H),
    with H.bit_count() blocks.  A head's atoms are cut from one (mask bit,
    first position, last position) entry per label: a cut falls before a
    label of the mask whose first position lies past every earlier label's
    last.  So no head is split or cut again; only the input's own codes are
    cut, by ``_code_cut``.  The memo is keyed by code, so each distinct
    code's antipode is taken once, whichever mask or table meets it first.

    A pair whose antipode side is one block, p_[m] being primitive, is added
    in line with no memo lookup and no recursion: +head * tail for a
    one-block head of the last-part sum, -head * tail for a one-block tail of
    the first-part sum.  The other pairs are counted first, equal (head,
    tail, k) splits on a plain dict, k being the head's block count.  Every
    term of an antipode has its code's block count, so the last-part sum
    shifts each distinct tail up by k once and a product is the bare ``q +
    tail``; the first-part sum shifts each q of S(tail) and appends it to the
    head.  A code whose atoms are all single blocks is answered as one term,
    its blocks reversed with sign (-1)^t, and no factor is taken; any other
    code of several atoms is the product of their antipodes, refused before
    it is multiplied when its Π|S(atom)| terms exceed the work limit.  These
    two answers are shared by the input's codes and the masks.  Every dict
    returned holds no zero, so an element may take it unscanned.  Callers
    may keep the dicts returned, and must not change them while the kernel
    is in use; the memo dies with the kernel, so a caller done with it may
    take a dict over.
    """
    memo = {b"": {b"": 1}}

    def flipped(code, t):
        # Every atom one block: S(A) is the one term (-1)^t times the t
        # blocks in reverse order, whose code is A's reversed with each label
        # l read as t - 1 - l.
        labels = [t - 1 - label for label in reversed(code)]
        return {bytes(labels) if isinstance(code, bytes) else tuple(labels): (-1) ** t}

    def multiplied(code, atoms, width, antipode):
        # S(A_t)...S(A_1), each atom of width(atom) blocks.  Every term of an
        # atom's antipode has the atom's block count, so no two products of
        # the factors' terms coincide, the product has exactly as many terms
        # as the product of the factors' sizes, and the running product is
        # shifted once per atom.
        factors = list(map(antipode, atoms))
        size = math.prod(map(len, factors))
        _check_work(size, "antipode of a product of atoms: predicted Π|S(atom)| {count} terms")
        got = factors[0]
        for atom, factor in zip(atoms[1:], factors[1:]):
            # A bytes code has at most 255 blocks, and so has every partial
            # product; a tuple code's products go through _concat.
            if isinstance(code, bytes):
                shift = _SHIFT[width(atom)]
                tails = [(y.translate(shift), cy) for y, cy in got.items()]
                got = {x + y: cx * cy for x, cx in factor.items() for y, cy in tails}
            else:
                got = {_concat(x, y): cx * cy for x, cx in factor.items() for y, cy in got.items()}
        return got

    def part_sum(code, first):
        # The first- or last-part sum of a code, on the code's one table.
        subs = _all_splits(code)
        r = len(subs).bit_length() - 1
        # Up to two blocks, every side of every pair is one block, added in
        # line: no head is looked up by its mask.
        if r > 2:
            mask_of = dict(zip(subs, range(len(subs))))
            labels = [(1 << (r - 1 - l), code.find(l), code.rfind(l)) for l in range(r)]

        def by_mask(mask):
            head = subs[mask]
            got = memo.get(head)
            if got is None:
                atoms, reach = [], -1
                for bit, start, end in labels:
                    if mask & bit:
                        if start > reach:
                            atoms.append(bit)
                        else:
                            atoms[-1] |= bit
                        if end > reach:
                            reach = end
                k = mask.bit_count()
                if len(atoms) == k:
                    got = flipped(head, k)
                elif len(atoms) == 1:
                    got = summed(mask, False)
                else:
                    got = multiplied(head, atoms, int.bit_count, by_mask)
                memo[head] = got
            return got

        def summed(mask, first):
            # The pairs (std(A|H), std(A|mask ^ H), |H|) over the sub-masks H
            # of the mask, read off the table from the top down.  The
            # last-part sum takes every H but the mask and 0, a one-block
            # head giving -S(head) * rest = head * rest; the first-part sum,
            # on the whole table, the H holding label 0 (the top bit) but the
            # mask, a one-block rest giving -head * rest.
            single, sign, low = 1, 1, 1
            if first:
                single, sign, low = mask.bit_count() - 1, -1, (mask + 1) // 2
            out, counts, shift = {subs[mask]: -sign}, {}, _SHIFT[single]
            sub = mask
            while (sub := (sub - 1) & mask) >= low:
                # Each triple is its own count key, built once per pair.
                triple = subs[sub], subs[mask ^ sub], sub.bit_count()
                if triple[2] == single:
                    head, tail, _ = triple
                    key = head + tail.translate(shift)
                    out[key] = out.get(key, 0) + sign
                else:
                    counts[triple] = counts.get(triple, 0) + 1
            for (head, tail, k), n in counts.items():
                shift = _SHIFT[k]
                # A memo hit skips the call: no antipode is empty.
                if first:
                    for q, c in (memo.get(tail) or by_mask(mask_of[tail])).items():
                        key = head + q.translate(shift)
                        out[key] = out.get(key, 0) + n * c
                else:
                    tail = tail.translate(shift)
                    for q, c in (memo.get(head) or by_mask(mask_of[head])).items():
                        key = q + tail
                        out[key] = out.get(key, 0) - n * c
            return _nonzero(out)

        return summed(len(subs) - 1, first)

    def antipode_of(code, pieces=None):
        got = memo.get(code)
        if got is None:
            if pieces is None:
                pieces = _code_cut(code)
            if len(pieces) > 1:
                got = multiplied(code, pieces, _blocks, lambda atom: antipode_of(atom, [atom]))
            elif len(pieces) == 1 < _blocks(code):
                got = part_sum(code, False)
            else:
                # No cut (every atom one block), or one block.
                got = flipped(code, _blocks(code))
            memo[code] = got
        return got

    return antipode_of, functools.partial(part_sum, first=True)


def _factored_codes(terms):
    """The default route on a map of codes to coefficients: a dict of the
    antipode's codes to coefficients, owned by the caller.

    Each nonempty code is cut into atoms once, a code whose labels never
    decrease with no scan (its atoms are its blocks), and the 3^r splits of
    the widest atom are checked against the work limit before any work; one
    kernel, and so one memo, serves all the terms.  A single term with
    coefficient 1 gets the kernel's own dict, uncopied.
    """
    cuts = {code: _code_cut(code) for code in terms if code}
    r = max(map(_blocks, itertools.chain.from_iterable(cuts.values())), default=0)
    _check_splits("antipode of an atom", r)
    antipode_of, _ = _kernel()
    if len(terms) == 1:
        # The kernel's memo dies with this call, so its dict can be handed on.
        ((code, coeff),) = terms.items()
        got = antipode_of(code, cuts.get(code))
        return got if coeff == 1 else {q: coeff * c for q, c in got.items()}
    out = {}
    for code, coeff in terms.items():
        for q, c in antipode_of(code, cuts.get(code)).items():
            out[q] = out.get(q, 0) + coeff * c
    return _nonzero(out)


def antipode_factored(part):
    """Antipode by atoms: the default route.

    S is an antimorphism over the atomic splitting, S(A) = S(A_t)...S(A_1).
    An atom's antipode is its signed composition sum, taken by recursion on
    the last part, the rest of K: S(A) = -sum over K short of all blocks of
    S(std(A|K)) * std(A|rest), with equal (head, tail) splits combined and
    each head's antipode again by atoms; a one-block partition is primitive,
    so S(p_[n]) = -p_[n] with no recursion.  Every partition met is a
    standardized sub-partition of one input atom, memoized for this call
    only, so an atom of r blocks costs at most 3^r head/tail pairs and a
    many-atom input the sum of its atoms' costs.  A partition whose blocks
    are its atoms (its labels never decrease) is answered with no cut and
    no split: its blocks reversed, with sign (-1)^t.

    The whole route runs on codes (see ``_encode``), which are canonical by
    construction.  Each input atom is split once, into its 2^r byte
    translates (``_all_splits``), and every head below it is read off that
    table by its label mask: the head at mask J splits into the entries at
    J's sub-masks and is cut into atoms from each label's first and last
    positions, so no head is split or cut again (see ``_kernel``).  Each
    distinct tail's labels are shifted up once by the head's block count,
    read off the head's split index, a product is ``q + tail``, and no
    partition is built, sorted or checked inside.  An
    input whose widest atom's 3^r splits exceed the work limit (13 blocks or
    more) is refused before any work, and a product over the atoms with more
    terms than the limit before it is multiplied; the product keys past 255
    blocks by a tuple.  This checks the partition and runs the code-level
    body that the element-level ``antipode`` runs on its terms; the empty
    partition gives the unit.
    """
    return NCSymElement._wrap(_factored_codes({_basis_code(part): 1}))


@functools.cache
def _oracle_codes(code):
    """Graded-connected recursion on codes, memoized for the process: the
    dicts it returns are shared and must not be changed."""
    if not code:
        return {b"": 1}
    pairs = [(code, -1)]
    for (left, right), coeff in _coproduct_codes({code: 1}).items():
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
    code = _basis_code(part)
    _check_splits("antipode_oracle", _blocks(code))
    return NCSymElement._combine(_oracle_codes(code).items())


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


def primitive(part):
    """Signed sum over the compositions anchored at 1, taken by first parts.

    primitive(A) = sum over the block sets K holding block 1 of
    std(A|K) * S(std(A|rest)), with S the antipode and S(empty) = 1: split
    each anchored composition into its first part K and a composition of the
    rest, whose signed sum is S(std(A|rest)).  Read from a fresh source of
    primitives (``_primitives``), on the default route's code kernel and its
    memo: 2^(r-1) head/tail pairs for r blocks, against Fubini(r-1)-sized
    sums for the anchored compositions, and at most 3^r splits in all, which
    are checked against the work limit before the kernel is built.

    Nonzero (and primitive) exactly when the input is atomic; zero for every
    other nonempty standard partition.  Undefined on the empty partition.
    """
    _check_splits("primitive", _blocks(_primitive_code(part)))
    return _primitives()(part)


def _primitive_code(part):
    """The code of a nonempty standard partition, checked by ``_basis_code``:
    the input check of ``primitive`` and ``_primitive_anchored``, each of
    which then predicts its own work."""
    code = _basis_code(part)
    if not code:
        raise ValueError("primitive is undefined on the empty partition")
    return code


def _primitive_anchored(part):
    """``primitive`` by the full signed sum over the compositions anchored at
    1: the referee of the first-part route in ``verify`` and the tests."""
    r = _blocks(_primitive_code(part))
    message = "_primitive_anchored of {} blocks: predicted 2·Fubini({}) {count} compositions"
    _check_growth(lambda m: 2 * fubini_numbers(m)[m], r - 1, message, r, r - 1)
    return NCSymElement._combine(
        (_encode(gamma.evaluate(part)), 1 if gamma.length % 2 else -1)
        for gamma in anchored_compositions(r)
    )


def reduced_coproduct(x):
    """Coproduct minus the two unit tensor legs; zero iff x is primitive.

    Only a term A itself splits as (A, empty) or (empty, A), always with A's
    coefficient, so the legs are those two keys of each term deleted."""
    if counit(x) != 0:
        raise ValueError("reduced coproduct needs counit zero")
    splits = _coproduct_codes(x._terms)
    for code in x._terms:
        del splits[code, b""], splits[b"", code]
    return TensorElement._wrap(_nonzero(splits))


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


def _code_order(code, pieces=None, text=_code_text):
    """``partition_key`` of a code's partition, built from the code;
    ``pieces`` may hand over its atoms when the caller has already cut it,
    and ``text`` may be a cache of ``_code_text`` that a caller ordering many
    codes keeps for one call, so each distinct atom's text is built once."""
    if pieces is None:
        pieces = _code_atoms(code) if code else ()
    return tuple((-len(atom), text(atom)) for atom in pieces)


def leading_term(x):
    """(partition, coefficient) at the minimum of the support in the atom
    order."""
    if x.is_zero():
        raise ValueError("the zero element has no leading term")
    code = min(x._terms, key=_code_order)
    return _decode(code), x._terms[code]


def _primitives():
    """One source of primitives, on one ``_kernel()`` for its lifetime.

    Returns ``of(tree)``.  A tree that is a standard partition gives its
    primitive; a Hall tree of atoms, a pair of subtrees, gives the bracket
    left * right - right * left of its subtrees' elements.  Each leaf and
    each bracket subtree is taken once per source, and every primitive
    reads the one kernel memo, so the antipodes of the tails they share are
    each taken once.  The trees are trusted: callers check the leaves and
    their 3^r limit first, and ``hall_primitive`` its tree's size.
    """
    _, first_part_sum = _kernel()

    @functools.cache
    def of(tree):
        if isinstance(tree, SetPartition):
            return NCSymElement._wrap(first_part_sum(_encode(tree)))
        left, right = of(tree[0]), of(tree[1])
        return left * right - right * left

    return of


def hall_primitive(atoms):
    """Iterated commutator of primitive generators along the Hall bracketing.

    The atom word must be Lyndon in the atom order; a single atom gives its
    primitive generator back.  Every letter is checked once, as an atomic
    standard partition, then the word is tested for Lyndon, then each
    letter's 3^r splits are checked as ``primitive`` checks them.  The
    letters' primitives are then taken, and the word is refused, before any
    bracket, when 2^(k-1)·Π|P(letter)| over its k letters exceeds the work
    limit: a bracket [u, v] has at most 2|u||v| terms, so that bounds the
    whole expansion.  The tree is expanded on the same source of primitives
    (``_primitives``), which takes each distinct letter and subtree once.
    """
    atoms = tuple(atoms)
    for atom in atoms:
        if not isinstance(atom, SetPartition) or not atom.is_standard() or not atom.is_atomic():
            raise ValueError(f"not an atomic standard partition: {atom!r}")
    # Each letter's key once per call: every split of the bracketing reads
    # the keys again.
    key = functools.cache(atom_key)
    if not is_lyndon(atoms, key=key):
        raise ValueError("atom word is not Lyndon in the atom order")
    for atom in atoms:
        _check_splits("primitive", atom.length)
    of, k = _primitives(), len(atoms)
    size = 2 ** (k - 1) * math.prod(len(of(atom)._terms) for atom in atoms)
    message = "hall_primitive of {} letters: predicted 2^{}·Π|P(letter)| {count} terms"
    _check_work(size, message, k, k - 1)
    return of(_hall_tree(atoms, key))


def lyndon_atom_words(total_weight):
    """Lyndon words in the atom alphabet with the given total weight, in
    ``partition_key`` order.

    The product concatenates partitions, so each standard partition of the
    weight is exactly one word of atoms, its ``atoms()``; the words are read
    off the partitions whose key is Lyndon.  Their Bell(n) count is checked
    against the work limit first, which refuses weight 12 and up.
    """
    n = _checked_size(total_weight, "total weight", 1)
    message = "lyndon_atom_words of weight {0}: predicted Bell({0}) {count} partitions"
    _check_growth(lambda m: bell_numbers(m)[m], n, message, n)
    return _lyndon_atom_words(set_partitions(n))


def _lyndon_atom_words(partitions):
    """``lyndon_atom_words`` given the weight's standard partitions."""
    cut = [(code, _code_atoms(code)) for code in map(_encode, partitions)]
    text = functools.cache(_code_text)
    keyed = sorted((_code_order(code, pieces, text), pieces) for code, pieces in cut)
    return [tuple(map(_decode, pieces)) for key, pieces in keyed if is_lyndon(key)]


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
    _checked_size(n, "weight", 1)
    _check_growth(_split_count, n, "{} of weight {}: predicted Σ_A 2^|A| {count} splits", what, n)


def primitive_space_dimension(n):
    """Dimension of the primitive subspace of the weight-n component.

    Nullity of the reduced coproduct on the weight-n basis, by exact sparse
    elimination over the integers (``integer_rank``): about 0.07 s at n = 7
    and 0.5 s at 8.  The Σ 2^|A| splits over the partitions A of [n] are checked
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
    ``primitive_space_dimension`` is; the weight's partitions are then
    enumerated once, for both the Lyndon words and the dimension."""
    _check_primitive_layer("hall_span_check", n)
    partitions = list(set_partitions(n))
    return _hall_span(n, _lyndon_atom_words(partitions), _primitive_space_dimension(partitions))


def _hall_span(n, words, dim):
    """``hall_span_check`` given the Lyndon atom words and the dimension: each
    word's Hall primitive is primitive and of weight n, and their exact rank
    is both their number and ``dim``.  Enumerates nothing.  The words are
    trusted: all of them are expanded on one source of primitives, with one
    cached atom key, so letters and subtrees they share are taken once."""
    key, primitive = functools.cache(atom_key), _primitives()
    elements = [primitive(_hall_tree(word, key)) for word in words]
    for element in elements:
        if reduced_coproduct(element) or any(len(code) != n for code in element._terms):
            return False
    return integer_rank([element._terms for element in elements]) == len(elements) == dim


def _signed(x, body):
    """Sign-joined text of the terms of ``x`` in atom order, sorted on their
    codes by ``_code_order``, each distinct atom's text built once: the first
    sign bare, the others spaced, a magnitude of 1 left out."""
    pieces, atom_text = [], functools.cache(_code_text)
    for key, coeff in x._decoded(lambda code: _code_order(code, text=atom_text)):
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
    return _signed(x, lambda part: f"({_label(part)})")


def format_tensor(t):
    """Text form of a tensor combination, factors joined by the tensor sign."""
    return _signed(t, lambda pair: f"({_label(pair[0])})\u2297({_label(pair[1])})")
