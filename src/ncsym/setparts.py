"""Set partitions and set compositions of positive integers.

A set partition is an unordered family of disjoint nonempty blocks, listed
canonically in increasing order of block minima; a set composition is an
ordered sequence of disjoint nonempty parts.  Both carry a compact shorthand
("13.28.4" for partitions, "38|12|4" for compositions) in which blocks are
strings of single digits, together with an extended comma form
("1,13.2,8.4") needed once ground elements exceed 9.

Validation happens where data enters: the public constructors, ``parse``,
``serialize`` and public-method arguments.  Internal results (shifts,
standardizations, concatenations, selections, atoms, enumerations) are
canonical by construction and built by each type's trusted ``_of``.

All values are immutable after construction and safe to share between
threads.  The enumeration functions return fresh iterators in a fixed order
(lexicographic on the extended-form string), so repeated calls replay the
same stream.
"""

from __future__ import annotations

import itertools
import operator

__all__ = [
    "NotationError",
    "parse",
    "SetPartition",
    "SetComposition",
    "EMPTY_PARTITION",
    "EMPTY_COMPOSITION",
    "set_partitions",
    "atomic_set_partitions",
    "set_compositions",
    "compositions_of",
    "anchored_compositions",
    "refinements",
]


_last = operator.itemgetter(-1)


class NotationError(ValueError):
    """Raised when shorthand text cannot be parsed."""


def _checked_groups(groups, kind, disjoint=True):
    """Normalize an iterable of element groups to sorted int tuples."""
    seen = set()
    out = []
    for group in groups:
        members = tuple(sorted(group))
        if not members:
            raise ValueError(f"empty {kind} not allowed")
        for e in members:
            if not isinstance(e, int) or isinstance(e, bool) or e < 1:
                raise ValueError(f"{kind} elements must be positive integers, got {e!r}")
        for a, b in zip(members, members[1:]):
            if a == b:
                raise ValueError(f"duplicate element {a} within a {kind}")
        if disjoint:
            clash = seen.intersection(members)
            if clash:
                raise ValueError(f"duplicate element {min(clash)} across {kind}s")
            seen.update(members)
        out.append(members)
    return tuple(out)


def _trusted(slot):
    """The private constructor of internal paths: a classmethod that stores
    an already canonical tuple in ``slot`` without sorting or checking it."""

    def _of(cls, groups):
        self = object.__new__(cls)
        setattr(self, slot, groups)
        return self

    return classmethod(_of)


def _parse_groups(text, sep, kind):
    """Split shorthand text into tuples of ints (no disjointness checks).

    A comma anywhere switches the whole string to the extended form; a single
    trailing comma is the marker that keeps comma-free extended strings (all
    groups singletons, some element >= 10) from re-parsing as compact digits.
    """
    if text in ("", "∅"):
        return ()
    extended = "," in text
    if text.endswith(","):
        text = text[:-1]
    groups = []
    for token in text.split(sep):
        if not token:
            raise NotationError(f"empty {kind} in {text!r}")
        members = []
        if extended:
            for item in token.split(","):
                if not item.isdigit():
                    raise NotationError(f"malformed integer {item!r} in {kind} {token!r}")
                members.append(int(item))
        else:
            for ch in token:
                if ch not in "123456789":
                    raise NotationError(f"malformed digit {ch!r} in {kind} {token!r}")
                members.append(int(ch))
        groups.append(tuple(members))
    return tuple(groups)


def _format_groups(groups, sep, mode):
    if mode not in (None, "compact", "extended"):
        raise ValueError(f"unknown format mode {mode!r}")
    if not groups:
        return ""
    top = max(g[-1] for g in groups)
    if mode is None:
        mode = "compact" if top <= 9 else "extended"
    if mode == "compact":
        if top > 9:
            raise ValueError(f"element {top} does not fit the compact form; use extended")
        return sep.join("".join(str(e) for e in g) for g in groups)
    text = sep.join(",".join(str(e) for e in g) for g in groups)
    if top > 9 and "," not in text:
        text += ","
    return text


class SetPartition:
    """Disjoint nonempty blocks of positive integers, ordered by block minima.

    The ground set need not be an initial segment {1..n}; ``standardize``
    relabels onto one.  The empty partition (no blocks) is valid and acts as
    the unit for ``concat``.
    """

    __slots__ = ("blocks",)
    _of = _trusted("blocks")

    def __init__(self, blocks=()):
        self.blocks = tuple(sorted(_checked_groups(blocks, "block"), key=lambda b: b[0]))

    @classmethod
    def parse(cls, text):
        """Parse dotted shorthand, e.g. ``"13.28.4"`` or ``"1,13.2,8.4"``."""
        groups = _parse_groups(text, ".", "block")
        try:
            return cls(groups)
        except ValueError as exc:
            raise NotationError(str(exc)) from None

    def format(self, mode=None):
        """Shorthand text; ``mode`` forces ``"compact"`` or ``"extended"``."""
        return _format_groups(self.blocks, ".", mode)

    def sort_key(self):
        """Canonical ordering key: the extended-form string."""
        return _format_groups(self.blocks, ".", "extended")

    @property
    def weight(self):
        return sum(map(len, self.blocks))

    @property
    def length(self):
        return len(self.blocks)

    def ground(self):
        return tuple(sorted(itertools.chain.from_iterable(self.blocks)))

    def is_standard(self):
        """True when the ground set is exactly {1..weight}: the elements are
        distinct positive ints, so exactly when the largest equals the count."""
        return max(map(_last, self.blocks), default=0) == self.weight

    def shift(self, k):
        """Add ``k`` to every element, preserving the block structure."""
        if not isinstance(k, int) or k < 0:
            raise ValueError(f"shift amount must be a nonnegative integer, got {k!r}")
        return SetPartition._of(tuple(tuple(e + k for e in b) for b in self.blocks))

    def standardize(self):
        """Relabel along the unique increasing bijection onto {1..weight}."""
        ground = self.ground()
        if not ground or ground[-1] == len(ground):
            return self
        rank = dict(zip(ground, itertools.count(1)))
        return SetPartition._of(tuple(tuple(map(rank.__getitem__, b)) for b in self.blocks))

    def concat(self, other):
        """Disjoint concatenation: ``self`` followed by ``other`` shifted up.

        Both operands must be standard; the result is standard of weight
        ``self.weight + other.weight``.
        """
        if not self.is_standard() or not other.is_standard():
            raise ValueError("concat requires standard partitions")
        return SetPartition._of(self.blocks + other.shift(self.weight).blocks)

    def sub_partition(self, indices):
        """Blocks selected by 1-based position in minima order, unchanged."""
        picked = sorted(set(indices))
        for i in picked:
            if not isinstance(i, int) or not 1 <= i <= len(self.blocks):
                raise ValueError(f"block index {i!r} out of range 1..{len(self.blocks)}")
        return SetPartition._of(tuple(self.blocks[i - 1] for i in picked))

    def is_atomic(self):
        """True when no proper prefix {1..m} is a union of whole blocks.

        Equivalent test: every boundary m in 1..n-1 lies strictly inside some
        block's [min, max) span.  The empty partition is not atomic.
        """
        if not self.is_standard():
            raise ValueError("atomicity requires a standard partition")
        n = self.weight
        if n == 0:
            return False
        reach = 0
        for block in self.blocks:
            if block[0] > reach + 1:
                return False
            if block[-1] - 1 > reach:
                reach = block[-1] - 1
        return reach >= n - 1

    def atoms(self):
        """Maximal splitting into atomic factors.

        Scans blocks in minima order and cuts whenever the blocks seen since
        the previous cut cover a full segment; folding ``concat`` back over
        the result reproduces ``self``.
        """
        if not self.is_standard():
            raise ValueError("atomic factorization requires a standard partition")
        out = []
        chunk = []
        count = 0
        top = 0
        base = 0
        for block in self.blocks:
            chunk.append(block)
            count += len(block)
            if block[-1] > top:
                top = block[-1]
            if top - base == count:
                out.append(SetPartition._of(tuple(tuple(e - base for e in b) for b in chunk)))
                base = top
                chunk = []
                count = 0
        return tuple(out)

    def __eq__(self, other):
        if not isinstance(other, SetPartition):
            return NotImplemented
        return self.blocks == other.blocks

    def __hash__(self):
        return hash(self.blocks)

    def __iter__(self):
        return iter(self.blocks)

    def __str__(self):
        return self.format()

    def __repr__(self):
        return f"SetPartition({self.format() or chr(0x2205)!r})"


class SetComposition:
    """Ordered sequence of disjoint nonempty parts of positive integers.

    A composition of K acts on set partitions with at least max(K) blocks:
    ``gamma(A)`` selects, standardizes, and concatenates the sub-partitions
    of A indexed by the parts of gamma, in order.
    """

    __slots__ = ("parts",)
    _of = _trusted("parts")

    def __init__(self, parts=()):
        self.parts = _checked_groups(parts, "part")

    @classmethod
    def parse(cls, text):
        """Parse piped shorthand, e.g. ``"38|12|4"``."""
        groups = _parse_groups(text, "|", "part")
        try:
            return cls(groups)
        except ValueError as exc:
            raise NotationError(str(exc)) from None

    def format(self, mode=None):
        return _format_groups(self.parts, "|", mode)

    def sort_key(self):
        return _format_groups(self.parts, "|", "extended")

    @property
    def weight(self):
        return sum(len(p) for p in self.parts)

    @property
    def length(self):
        return len(self.parts)

    def ground(self):
        return tuple(sorted(itertools.chain.from_iterable(self.parts)))

    def restrict(self, keep):
        """Induced composition on a subset of the ground set.

        Intersects each part with ``keep`` and drops empties, preserving the
        part order.
        """
        keep = frozenset(keep)
        missing = keep - set(self.ground())
        if missing:
            raise ValueError(f"element {min(missing)} not in the ground set")
        inters = (tuple(e for e in part if e in keep) for part in self.parts)
        return SetComposition._of(tuple(inter for inter in inters if inter))

    def subsequence(self, positions):
        """Parts selected by 1-based position, in order."""
        picked = sorted(set(positions))
        for i in picked:
            if not isinstance(i, int) or not 1 <= i <= len(self.parts):
                raise ValueError(f"part index {i!r} out of range 1..{len(self.parts)}")
        return SetComposition._of(tuple(self.parts[i - 1] for i in picked))

    def refines(self, coarser):
        """True when every part of ``coarser`` is the union of a contiguous
        run of parts of ``self``, runs taken in order.  Reflexive."""
        if not isinstance(coarser, SetComposition):
            raise TypeError("refines compares set compositions")
        if self.ground() != coarser.ground():
            raise ValueError("refinement needs a common ground set")
        i = 0
        for part in coarser.parts:
            target = set(part)
            filled = 0
            while filled < len(target):
                if i >= len(self.parts) or not target.issuperset(self.parts[i]):
                    return False
                filled += len(self.parts[i])
                i += 1
        return i == len(self.parts)

    def evaluate(self, partition):
        """Apply to a set partition: concat of standardized block selections."""
        out = EMPTY_PARTITION
        for part in self.parts:
            out = out.concat(partition.sub_partition(part).standardize())
        return out

    __call__ = evaluate

    def __eq__(self, other):
        if not isinstance(other, SetComposition):
            return NotImplemented
        return self.parts == other.parts

    def __hash__(self):
        return hash((SetComposition, self.parts))

    def __iter__(self):
        return iter(self.parts)

    def __str__(self):
        return self.format()

    def __repr__(self):
        return f"SetComposition({self.format() or chr(0x2205)!r})"


EMPTY_PARTITION = SetPartition()
EMPTY_COMPOSITION = SetComposition()


def parse(text):
    """Parse shorthand by separator: ``|`` gives a set composition, anything
    else (including a single block) a set partition."""
    if "|" in text:
        return SetComposition.parse(text)
    return SetPartition.parse(text)


def _checked_size(n):
    if not isinstance(n, int) or n < 0:
        raise ValueError(f"size must be a nonnegative integer, got {n!r}")
    return n


def set_partitions(n):
    """All set partitions of {1..n}, ordered by their extended-form strings."""
    _checked_size(n)
    state = [()]
    for x in range(1, n + 1):
        grown = []
        for blocks in state:
            for i in range(len(blocks)):
                grown.append(blocks[:i] + (blocks[i] + (x,),) + blocks[i + 1 :])
            grown.append(blocks + ((x,),))
        state = grown
    return iter(sorted(map(SetPartition._of, state), key=SetPartition.sort_key))


def atomic_set_partitions(n):
    """Atomic set partitions of {1..n}, in the same order as ``set_partitions``.

    Generates via restricted-growth label strings (a code path independent of
    ``set_partitions``) and keeps the partitions with no proper prefix cut.
    """
    _checked_size(n)
    found = []

    def walk(labels, top):
        if len(labels) == n:
            blocks = [[] for _ in range(top + 1)]
            for idx, lab in enumerate(labels):
                blocks[lab].append(idx + 1)
            cand = SetPartition._of(tuple(map(tuple, blocks)))
            if cand.is_atomic():
                found.append(cand)
            return
        for v in range(top + 2):
            labels.append(v)
            walk(labels, max(top, v))
            labels.pop()

    if n:
        walk([], -1)
    return iter(sorted(found, key=SetPartition.sort_key))


def _raw_compositions(elems):
    if not elems:
        yield ()
        return
    for size in range(1, len(elems) + 1):
        for first in itertools.combinations(elems, size):
            taken = set(first)
            rest = tuple(e for e in elems if e not in taken)
            for tail in _raw_compositions(rest):
                yield (first,) + tail


def compositions_of(elements):
    """All set compositions of a finite set of positive integers."""
    elems = tuple(sorted(set(elements)))
    if elems:
        _checked_groups((elems,), "part")
    comps = map(SetComposition._of, _raw_compositions(elems))
    return iter(sorted(comps, key=SetComposition.sort_key))


def set_compositions(r):
    """All set compositions of {1..r}."""
    _checked_size(r)
    return compositions_of(range(1, r + 1))


def anchored_compositions(r):
    """Set compositions of {1..r} whose first part contains 1."""
    _checked_size(r)
    if r == 0:
        return iter(())
    rest = tuple(range(2, r + 1))
    found = []
    for size in range(0, r):
        for extra in itertools.combinations(rest, size):
            taken = set(extra)
            remaining = tuple(e for e in rest if e not in taken)
            for tail in _raw_compositions(remaining):
                found.append(SetComposition._of(((1,) + extra,) + tail))
    return iter(sorted(found, key=SetComposition.sort_key))


def refinements(rho):
    """All set compositions refining ``rho`` (each part split in place)."""
    if not isinstance(rho, SetComposition):
        raise TypeError("refinements expects a set composition")
    per_part = [list(_raw_compositions(part)) for part in rho.parts]
    found = []
    for combo in itertools.product(*per_part):
        found.append(SetComposition._of(tuple(itertools.chain.from_iterable(combo))))
    return iter(sorted(found, key=SetComposition.sort_key))
