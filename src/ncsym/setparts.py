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
canonical by construction and built by the one trusted ``_of`` of
``_Groups``, the private base both types share with ``words.Word``.

All values are immutable after construction and safe to share between
threads.  The enumeration functions check their argument when called and
return fresh lazy iterators in a fixed order, lexicographic on the
extended-form string, which they meet by construction: an element's digits
plus the separator after it form a token, tokens are tried in string order,
and no token is a proper prefix of a sibling, since separators are not
digits.  ``atomic_set_partitions`` filters ``set_partitions``, so it keeps
that order.  ``refinements`` is a product of each part's compositions, all
of one string length per part, so product order is string order.

``SetPartition._cuts`` is the one cut rule: ``atoms`` slices the blocks at
its cuts and ``is_atomic`` asks whether the first comes after the last block.
``bell_numbers`` and ``fubini_numbers`` count the two enumerations.
``_checked_size`` is the package's one integer-argument check: sizes,
weights and shift amounts are refused there with one message form.
``WORK_LIMIT`` is the package's one work limit, and ``_check_work`` its one
check: ``cli``'s ``enumerate`` and every route in ``hopf`` predict their
count of values, splits, compositions or terms and refuse, before any work,
a call predicted past the limit.
"""

from __future__ import annotations

import itertools
import math
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
    "bell_numbers",
    "fubini_numbers",
    "WORK_LIMIT",
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
                if not (item.isascii() and item.isdigit()):
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
        return sep.join(["".join(map(str, g)) for g in groups])
    text = sep.join([",".join(map(str, g)) for g in groups])
    if top > 9 and "," not in text:
        text += ","
    return text


def _label(value):
    """Shorthand text of a value, or the empty-set sign for an empty one."""
    return value.format() or "∅"


class _Groups:
    """Shared body of ``SetPartition``, ``SetComposition`` and ``words.Word``:
    a tuple of sorted int tuples.  A subclass names its groups (``_kind``, in
    messages), its separator and whether groups are disjoint, and aliases
    ``groups`` publicly; values of two subclasses are never equal."""

    __slots__ = ("groups",)
    _disjoint = True

    def __init__(self, groups=()):
        self.groups = _checked_groups(groups, self._kind, self._disjoint)

    @classmethod
    def _of(cls, groups):
        """Trusted constructor of internal paths: stores an already canonical
        tuple without sorting or checking it."""
        self = object.__new__(cls)
        self.groups = groups
        return self

    @classmethod
    def _parse(cls, text):
        groups = _parse_groups(text, cls._sep, cls._kind)
        try:
            return cls(groups)
        except ValueError as exc:
            raise NotationError(str(exc)) from None

    def format(self, mode=None):
        """Shorthand text; ``mode`` forces ``"compact"`` or ``"extended"``."""
        return _format_groups(self.groups, self._sep, mode)

    def sort_key(self):
        """Canonical ordering key: the extended-form string."""
        return _format_groups(self.groups, self._sep, "extended")

    @property
    def weight(self):
        return sum(map(len, self.groups))

    @property
    def length(self):
        return len(self.groups)

    def ground(self):
        return tuple(sorted(itertools.chain.from_iterable(self.groups)))

    def _select(self, indices):
        """Groups selected by 1-based position, unchanged and in their order
        (``sub_partition``, ``subsequence``).  A bool or non-int index is
        named first, in the given order (a set would take True for 1), then
        the least index out of range."""
        indices = list(indices)
        n = len(self.groups)
        bad = [i for i in indices if not isinstance(i, int) or isinstance(i, bool)]
        bad = bad or sorted(i for i in indices if not 1 <= i <= n)
        if bad:
            raise ValueError(f"{self._kind} index {bad[0]!r} out of range 1..{n}")
        return self._of(tuple(self.groups[i - 1] for i in sorted(set(indices))))

    def __eq__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return self.groups == other.groups

    def __hash__(self):
        return hash(self.groups)

    def __iter__(self):
        return iter(self.groups)

    def __str__(self):
        return self.format()

    def __repr__(self):
        return f"{type(self).__name__}({_label(self)!r})"


class SetPartition(_Groups):
    """Disjoint nonempty blocks of positive integers, ordered by block minima.

    The ground set need not be an initial segment {1..n}; ``standardize``
    relabels onto one.  The empty partition (no blocks) is valid and acts as
    the unit for ``concat``.
    """

    __slots__ = ()
    _kind, _sep = "block", "."
    blocks = _Groups.groups

    def __init__(self, blocks=()):
        self.groups = tuple(sorted(_checked_groups(blocks, "block"), key=lambda b: b[0]))

    @classmethod
    def parse(cls, text):
        """Parse dotted shorthand, e.g. ``"13.28.4"`` or ``"1,13.2,8.4"``."""
        return cls._parse(text)

    def is_standard(self):
        """True when the ground set is exactly {1..weight}: the elements are
        distinct positive ints, so exactly when the largest equals the count."""
        return max(map(_last, self.blocks), default=0) == self.weight

    def shift(self, k):
        """Add ``k`` to every element, preserving the block structure."""
        _checked_size(k, "shift amount")
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
        return self._concat(other)

    def _concat(self, other):
        """Trusted ``concat``: both operands already standard, not checked."""
        w = self.weight
        return SetPartition._of(self.blocks + tuple([tuple([e + w for e in b]) for b in other.blocks]))

    sub_partition = _Groups._select

    def _cuts(self):
        """Each (i, m) at which the first i blocks cover exactly {1..m}, for a
        standard partition: the one cut rule of ``atoms`` and ``is_atomic``.
        The blocks hold distinct positive ints in minima order, so that holds
        exactly when their largest element equals their element count."""
        top = count = 0
        for i, block in enumerate(self.blocks, 1):
            count += len(block)
            if block[-1] > top:
                top = block[-1]
            if top == count:
                yield i, count

    def is_atomic(self):
        """True when no proper prefix {1..m} is a union of whole blocks: the
        first cut comes after the last block, where a nonempty standard
        partition always has one.  The empty partition is not atomic."""
        if not self.is_standard():
            raise ValueError("atomicity requires a standard partition")
        return self.length > 0 and next(self._cuts())[0] == self.length

    def atoms(self):
        """Maximal splitting into atomic factors: the blocks sliced at the
        cuts, each run relabelled from 1; folding ``concat`` back over the
        result reproduces ``self``."""
        if not self.is_standard():
            raise ValueError("atomic factorization requires a standard partition")
        out, start, base = [], 0, 0
        for i, m in self._cuts():
            chunk = self.blocks[start:i]
            out.append(SetPartition._of(tuple(tuple(e - base for e in b) for b in chunk)))
            start, base = i, m
        return tuple(out)


class SetComposition(_Groups):
    """Ordered sequence of disjoint nonempty parts of positive integers.

    A composition of K acts on set partitions with at least max(K) blocks:
    ``gamma(A)`` selects, standardizes, and concatenates the sub-partitions
    of A indexed by the parts of gamma, in order.
    """

    __slots__ = ()
    _kind, _sep = "part", "|"
    parts = _Groups.groups

    @classmethod
    def parse(cls, text):
        """Parse piped shorthand, e.g. ``"38|12|4"``."""
        return cls._parse(text)

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

    subsequence = _Groups._select

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
        """Apply to a set partition: concat of standardized block selections.

        The parts are canonical, sorted positive ints, so a part's last index
        alone is checked against the block count; a part past it names its
        least index out of range, as ``sub_partition`` would."""
        blocks, n = partition.blocks, partition.length
        out = EMPTY_PARTITION
        for part in self.parts:
            if part[-1] > n:
                raise ValueError(f"block index {next(i for i in part if i > n)} out of range 1..{n}")
            out = out._concat(SetPartition._of(tuple(blocks[i - 1] for i in part)).standardize())
        return out

    __call__ = evaluate


EMPTY_PARTITION = SetPartition()
EMPTY_COMPOSITION = SetComposition()


def parse(text):
    """Parse shorthand by separator: ``|`` gives a set composition, anything
    else (including a single block) a set partition."""
    if "|" in text:
        return SetComposition.parse(text)
    return SetPartition.parse(text)


def _checked_size(n, what="size", least=0):
    """``n`` when it is an int, not a bool, of at least ``least`` (0 or 1);
    else ``ValueError("<what> must be a nonnegative integer, got <n!r>")``,
    with "positive" for "nonnegative" when ``least`` is 1."""
    if not isinstance(n, int) or isinstance(n, bool) or n < least:
        sign = "positive" if least else "nonnegative"
        raise ValueError(f"{what} must be a {sign} integer, got {n!r}")
    return n


def bell_numbers(n_max):
    """Bell numbers 0..n_max by the Bell-triangle recurrence."""
    out = [1]
    row = [1]
    for _ in range(n_max):
        grown = [row[-1]]
        for v in row:
            grown.append(grown[-1] + v)
        row = grown
        out.append(row[0])
    return out


def fubini_numbers(r_max):
    """Ordered Bell numbers 0..r_max by the first-part recurrence."""
    out = [1]
    for r in range(1, r_max + 1):
        out.append(sum(math.comb(r, k) * out[r - k] for k in range(1, r + 1)))
    return out


# The one work limit: a call whose predicted count of summands, splits,
# terms or values exceeds it is refused before it does any work.
WORK_LIMIT = 10**6


def _check_work(count, message, *args, exact=True):
    """Refuse a call whose predicted ``count`` exceeds ``WORK_LIMIT``, with
    ``ValueError("<message> (limit 1000000)")``.  ``message`` is a
    ``str.format`` template, such as ``"coproduct of {0} blocks: predicted
    2^{0} {count} splits"``, filled with ``args`` only on refusal; its
    ``{count}`` reads "= <count>", or "> <count>" when ``exact`` is false
    and ``count`` is a lower bound.  So a call that passes builds no text."""
    if count > WORK_LIMIT:
        amount = f"{'=' if exact else '>'} {count}"
        raise ValueError(f"{message.format(*args, count=amount)} (limit {WORK_LIMIT})")


def _check_growth(count_of, r, message, *args):
    """``_check_work`` on ``count_of(r)``, a count that grows with r and is
    at least 2^(r-1), so over the limit from r = 21 on: past 21 it is read at
    21, as a lower bound, so that the prediction takes constant time for any
    r."""
    known = min(r, WORK_LIMIT.bit_length() + 1)
    _check_work(count_of(known), message, *args, exact=known == r)


def _sequences(others, sep, fixed=0, done=(), group=()):
    """Each sequence of groups covering the elements ``others`` (in
    digit-string order) after the closed groups ``done`` and the open
    ``group``, in token order: the first ``fixed`` groups open at the least
    element left, the later ones at any.  A group goes on at x (",") before
    it closes there (``sep``), and a closing is held back past each later
    element whose digits it sorts after ("1|" after "10,")."""
    if not others:
        yield done
        return
    low = group[-1] if group else 0
    high = min(others) if fixed > 0 and not group else max(others)
    held = []
    for i, x in enumerate(others):
        if low < x <= high:
            digits = str(x)
            while held and held[-1][0] < digits:
                yield from held.pop()[1]
            grown = group + (x,)
            rest = others[:i] + others[i + 1 :]
            if rest and max(rest) > x:
                yield from _sequences(rest, sep, fixed, done, grown)
            held.append((digits + sep, _sequences(rest, sep, fixed - 1, done + (grown,))))
    while held:
        yield from held.pop()[1]


def _by_digits(elements):
    """The elements in the string order of their digits, as ``_sequences``
    takes them."""
    return tuple(sorted(elements, key=str))


def set_partitions(n):
    """All set partitions of {1..n}, ordered by their extended-form strings."""
    _checked_size(n)
    return map(SetPartition._of, _sequences(_by_digits(range(1, n + 1)), ".", n))


def atomic_set_partitions(n):
    """Atomic set partitions of {1..n}: ``set_partitions`` filtered by
    ``is_atomic``, lazily and in the same order."""
    return filter(SetPartition.is_atomic, set_partitions(n))


def compositions_of(elements):
    """All set compositions of a finite set of positive integers."""
    elems = set(elements)
    if elems:
        _checked_groups((elems,), "part")
    return map(SetComposition._of, _sequences(_by_digits(elems), "|"))


def set_compositions(r):
    """All set compositions of {1..r}."""
    _checked_size(r)
    return compositions_of(range(1, r + 1))


def anchored_compositions(r):
    """Set compositions of {1..r} whose first part contains 1."""
    _checked_size(r)
    if r == 0:
        return iter(())
    return map(SetComposition._of, _sequences(_by_digits(range(1, r + 1)), "|", 1))


def refinements(rho):
    """All set compositions refining ``rho`` (each part split in place)."""
    if not isinstance(rho, SetComposition):
        raise TypeError("refinements expects a set composition")
    per_part = [_sequences(_by_digits(part), "|") for part in rho.parts]
    return (SetComposition._of(sum(combo, ())) for combo in itertools.product(*per_part))
