"""Words over finite sets of positive integers, quasi-shuffles, and Lyndon
word machinery for arbitrary ordered alphabets.

A ``Word`` is a sequence of nonempty finite subsets ("letters"); unlike set
compositions, distinct letters may share elements.  Quasi-shuffles interleave
two disjoint words, optionally merging letters that face each other; the left
quasi-shuffles are the interleavings whose first letter contains the first
letter of the left operand.

``Word`` shares the private base ``setparts._Groups``.  As there,
``Word(...)``, ``Word.parse``, ``serialize`` and public arguments are
validated; words built inside (prefixes, suffixes, quasi-shuffles, pairing
mates, restrictions) are trusted, made by the shared ``_of``.

``quasi_shuffle``, ``left_quasi_shuffle`` and ``restriction_tensor_sum``
predict their count of words or compositions and refuse a call over the
work limit (``setparts.WORK_LIMIT``) before any work.  The restriction sums
run on ``_restriction_kernel``: element sets are bit masks, the parts of a
composition are sub-masks, and the memo of unanchored sums is keyed by the
(left, right) masks of the elements left.  ``restriction_tensor_sum`` makes
a fresh kernel per call; ``verify``'s restriction-sum check makes one per
run and hands it all its splits.

The Lyndon helpers (``is_lyndon``, ``lyndon_split``, ``hall_tree``) work on
any Python sequence of letters, with an optional ``key`` supplying the letter
order; leaves of a Hall tree are the letters themselves, so letters must not
be 2-tuples.
"""

from __future__ import annotations

import math

from .setparts import SetComposition, _check_growth, _check_work, _Groups, fubini_numbers

__all__ = [
    "Word",
    "EMPTY_WORD",
    "disjoint",
    "quasi_shuffle",
    "left_quasi_shuffle",
    "pairing",
    "word_restrict",
    "restriction_tensor_sum",
    "is_lyndon",
    "lyndon_split",
    "hall_tree",
    "bracket_format",
]


class Word(_Groups):
    """Sequence of nonempty finite subsets of positive integers."""

    __slots__ = ()
    _kind, _sep, _disjoint = "letter", "|", False
    letters = _Groups.groups

    @classmethod
    def parse(cls, text):
        """Parse piped shorthand, e.g. ``"1|3|24"``."""
        return cls._parse(text)

    def ground(self):
        """Sorted distinct elements: unlike parts, letters may overlap."""
        return tuple(sorted(set().union(*self.letters)))

    def prefix(self, i):
        """The first ``i`` letters."""
        if not isinstance(i, int) or isinstance(i, bool) or not 0 <= i <= len(self.letters):
            raise ValueError(f"prefix length {i} out of range")
        return Word._of(self.letters[:i])

    def suffix(self, i):
        """The letters after position ``i``."""
        if not isinstance(i, int) or isinstance(i, bool) or not 0 <= i <= len(self.letters):
            raise ValueError(f"suffix start {i} out of range")
        return Word._of(self.letters[i:])


EMPTY_WORD = Word()


def disjoint(u, v):
    """True when no element appears in both words."""
    return not set(u.ground()).intersection(v.ground())


def _qshuffle(u, v, left=False):
    """The set of quasi-shuffles of u and v, or with ``left`` only those
    whose first letter holds u's first letter.

    A depth-first walk over (letters of u used, letters of v used, word so
    far): each step keeps u's next letter a, merges a with v's next letter b,
    or keeps b, and a word is made once one side has no letters left.  Each
    word is built once along its own path, so the work follows the D(k, l)
    words that the limit predicts, and nothing but the words is kept.
    """
    x, y = u.letters, v.letters
    out = set()

    def walk(i, j, word):
        if i == len(x) or j == len(y):
            word = Word._of(word + x[i:] + y[j:])
            assert word not in out, "quasi-shuffle produced a duplicate word"
            out.add(word)
            return
        a, b = x[i], y[j]
        walk(i + 1, j, word + (a,))
        walk(i + 1, j + 1, word + (tuple(sorted(a + b)),))
        if word or not left:
            walk(i, j + 1, word + (b,))

    walk(0, 0, ())
    return out


def _delannoy(k, l):
    """D(k, l) = sum over d of C(k, d)·C(l, d)·2^d, the quasi-shuffles of k
    and l letters (d merged pairs).  The sum stops at d = 21, whose term
    alone is over the work limit: exact when min(k, l) <= 21, else a lower
    bound over the limit, and in constant time for any sizes."""
    return sum(math.comb(k, d) * math.comb(l, d) << d for d in range(min(k, l, 21) + 1))


def quasi_shuffle(u, v):
    """All interleavings of two disjoint words where facing letters may merge.

    Recursion on the leading letters a of u and b of v: keep a, merge a with
    b into one letter, or keep b; a word of the empty word shuffles to itself.
    The D(k, l) words are checked against the work limit first, so 9 + 9
    letters and up are refused.
    """
    if not disjoint(u, v):
        raise ValueError("quasi-shuffle operands must be disjoint words")
    k, l = u.length, v.length
    what = f"quasi_shuffle of {k} and {l} letters"
    _check_work(what, f"D({k},{l})", _delannoy(k, l), "words", min(k, l) <= 21)
    return _qshuffle(u, v)


def _check_left_operands(u, v):
    if not u.letters or not v.letters:
        raise ValueError("left quasi-shuffle needs nonempty operands")
    if not disjoint(u, v):
        raise ValueError("quasi-shuffle operands must be disjoint words")


def left_quasi_shuffle(u, v):
    """The quasi-shuffles whose first letter contains the first letter of u.

    The quasi-shuffle walk without its third branch (keep v's letter) at the
    first step; past it the walk runs in full.  Operands must be nonempty and
    disjoint.  The D(k-1, l) + D(k-1, l-1) words are checked against the
    work limit first, so 10 + 10 letters and up are refused.
    """
    _check_left_operands(u, v)
    k, l = u.length, v.length
    what = f"left_quasi_shuffle of {k} and {l} letters"
    count = _delannoy(k - 1, l) + _delannoy(k - 1, l - 1)
    _check_work(what, f"D({k - 1},{l}) + D({k - 1},{l - 1})", count, "words", min(k - 1, l) <= 21)
    return _qshuffle(u, v, True)


def pairing(w, u, v):
    """Toggle the first letter of v between standalone and merged placement.

    A fixed-point-free involution on the left quasi-shuffles of (u, v) that
    changes the letter count by exactly one, so paired words carry opposite
    length parities.  Membership is decided by one walk along w, without
    building the left quasi-shuffles.
    """
    _check_left_operands(u, v)
    if not (isinstance(w, Word) and _is_left_quasi_shuffle(w, u, v)):
        raise ValueError("word is not a left quasi-shuffle of the given pair")
    return _pairing(w, v)


def _is_left_quasi_shuffle(w, u, v):
    """True when w is a left quasi-shuffle of the nonempty disjoint words u
    and v: each letter of w is u's next letter a, v's next letter b (not
    first), or a merged with b, and both words are used up.  As u and v share
    no element, at most one of the three matches, so the walk never branches.
    Each word ends in an empty letter, which matches no letter of w: past
    its end a merge is the other word's letter, which is tested first."""
    x, y = u.letters + ((),), v.letters + ((),)
    i = j = 0
    for letter in w.letters:
        if letter == x[i]:
            i += 1
        elif letter == y[j] and i:
            j += 1
        elif letter == tuple(sorted(x[i] + y[j])):
            i, j = i + 1, j + 1
        else:
            return False
    return i == len(u.letters) and j == len(v.letters)


def _pairing(w, v):
    """``pairing`` on a word known to be a left quasi-shuffle of (u, v)."""
    head = set(v.letters[0])
    spot = next(i for i, letter in enumerate(w.letters) if head.intersection(letter))
    letters = list(w.letters)
    if set(letters[spot]) == head:
        merged = tuple(sorted(set(letters[spot - 1]).union(head)))
        letters[spot - 1 : spot + 1] = [merged]
    else:
        rest = tuple(sorted(set(letters[spot]).difference(head)))
        letters[spot : spot + 1] = [rest, tuple(sorted(head))]
    return Word._of(tuple(letters))


def word_restrict(w, keep):
    """Restrict a disjoint-letter word to a subset of its ground set.

    Only defined for words whose letters are pairwise disjoint (those are the
    set compositions of their ground set); other words are rejected.
    """
    return Word._of(SetComposition(w.letters).restrict(keep).parts)


def restriction_tensor_sum(r, keep_left, keep_right):
    """Signed sum of split restrictions over anchored compositions of {1..r}.

    For each composition gamma of {1..r} with 1 in its first part, adds
    (-1)^length to the tensor key (gamma restricted to ``keep_left``, gamma
    restricted to ``keep_right``); returns the combined nonzero terms.
    Requires ``keep_left`` to be a proper subset containing 1 and the two
    sets to split {1..r} disjointly.  Summed by first parts on a fresh
    ``_restriction_kernel``, not by enumerating the compositions; the
    2·Fubini(r-1) anchored compositions are checked against the work limit
    first, so r = 9 and up are refused.
    """
    what, formula = f"restriction_tensor_sum of {r} elements", f"2·Fubini({r - 1})"
    # Checked before the sets, so that no size builds a set of {1..r}; a
    # size under 2 passes here and is refused below.
    _check_growth(what, formula, lambda m: 2 * fubini_numbers(m)[m], max(r - 1, 0), "compositions")
    left, right = frozenset(keep_left), frozenset(keep_right)
    full = frozenset(range(1, r + 1))
    if 1 not in left:
        raise ValueError("the left part must contain 1")
    if left == full:
        raise ValueError("the left part must be a proper subset")
    if left & right or (left | right) != full:
        raise ValueError(f"parts must split {{1..{r}}} disjointly")
    found = _restriction_kernel(r)(_mask(left), _mask(right), True)
    return {(Word._of(u), Word._of(v)): c for (u, v), c in found.items()}


def _mask(elements):
    """The bit mask of a set of positive integers: bit e - 1 for element e."""
    return sum(1 << (e - 1) for e in elements)


def _restriction_kernel(r):
    """Signed restriction sums over the set compositions of subsets of
    {1..r}, on element masks (see ``_mask``), memoized for the kernel's life.

    Returns ``signed_sum(left, right, anchored)``: the sum of (-1)^length
    (gamma|left, gamma|right) over the set compositions gamma of the elements
    of the disjoint masks ``left`` and ``right``, or over those whose first
    part holds the least of them when ``anchored``.  Keys are pairs of letter
    tuples, and zero sums are dropped.  Splitting gamma into its first part K
    and a composition of the rest gives -sum over K of (K & left, K & right)
    prepended to T(rest), where T is the unanchored sum.  T is memoized on
    the (left, right) masks of the elements left, which fix it whatever split
    they came from, so one kernel may serve many splits.  Parts are the
    sub-masks of the elements left, and each side's letter is read from a
    table of the 2^r masks.  Callers may keep the dicts returned, but not
    change them.
    """
    # The one-letter prefix of each mask: () for the empty mask.
    prefix = [(tuple(e + 1 for e in range(r) if mask >> e & 1),) for mask in range(1 << r)]
    prefix[0] = ()
    memo = {(0, 0): {((), ()): 1}}

    def signed_sum(left, right, anchored):
        elems = left | right
        # Anchored, only the parts holding the least element count.
        anchor = elems & -elems if anchored else 0
        acc = {}
        part = elems
        while part:
            if part & anchor == anchor:
                first_u, first_v = prefix[part & left], prefix[part & right]
                rest = (left & ~part, right & ~part)
                tails = memo.get(rest)
                if tails is None:
                    tails = memo[rest] = signed_sum(*rest, False)
                for (u, v), c in tails.items():
                    key = (first_u + u, first_v + v)
                    acc[key] = acc.get(key, 0) - c
            part = (part - 1) & elems
        return {key: c for key, c in acc.items() if c}

    return signed_sum


def is_lyndon(word, key=None):
    """True when the word is strictly smaller than all its proper suffixes."""
    seq = [key(x) for x in word] if key is not None else list(word)
    if not seq:
        raise ValueError("empty word")
    return all(seq < seq[i:] for i in range(1, len(seq)))


def lyndon_split(word, key=None):
    """Standard factorization (u, v) with v the longest proper Lyndon suffix.

    Both factors are Lyndon; the input must be Lyndon with at least two
    letters.  Slices of the input are returned, so strings split to strings.
    """
    if len(word) < 2:
        raise ValueError("factorization needs at least two letters")
    if not is_lyndon(word, key):
        raise ValueError("word is not Lyndon")
    for i in range(1, len(word)):
        if is_lyndon(word[i:], key):
            return word[:i], word[i:]
    raise AssertionError("unreachable: a single letter is Lyndon")


def hall_tree(word, key=None):
    """Binary bracketing of a Lyndon word by iterated standard factorization.

    Returns the letter itself for single-letter words, else a 2-tuple of
    subtrees.
    """
    if not is_lyndon(word, key):
        raise ValueError("word is not Lyndon")
    if len(word) == 1:
        return word[0]
    u, v = lyndon_split(word, key)
    return hall_tree(u, key), hall_tree(v, key)


def bracket_format(tree, render=str):
    """Render a bracket tree as nested commutators, e.g. ``[a,[[a,b],b]]``."""
    if isinstance(tree, tuple) and len(tree) == 2:
        return f"[{bracket_format(tree[0], render)},{bracket_format(tree[1], render)}]"
    return render(tree)
