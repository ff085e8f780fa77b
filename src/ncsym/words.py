"""Words over finite sets of positive integers, quasi-shuffles, and Lyndon
word machinery for arbitrary ordered alphabets.

A ``Word`` is a sequence of nonempty finite subsets ("letters"); unlike set
compositions, distinct letters may share elements.  Quasi-shuffles interleave
two disjoint words, optionally merging letters that face each other; the left
quasi-shuffles are the interleavings whose first letter contains the first
letter of the left operand.

As in ``setparts``, ``Word(...)``, ``Word.parse``, ``serialize`` and public
arguments are validated; words built inside (prefixes, suffixes,
quasi-shuffles, pairing mates, restrictions) are trusted, made by ``Word._of``.

The Lyndon helpers (``is_lyndon``, ``lyndon_split``, ``hall_tree``) work on
any Python sequence of letters, with an optional ``key`` supplying the letter
order; leaves of a Hall tree are the letters themselves, so letters must not
be 2-tuples.
"""

from __future__ import annotations

from .setparts import (
    NotationError,
    SetComposition,
    _checked_groups,
    _format_groups,
    _parse_groups,
    _trusted,
    anchored_compositions,
)

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
    "tree_leaves",
    "bracket_format",
]


class Word:
    """Sequence of nonempty finite subsets of positive integers."""

    __slots__ = ("letters",)
    _of = _trusted("letters")

    def __init__(self, letters=()):
        self.letters = _checked_groups(letters, "letter", disjoint=False)

    @classmethod
    def parse(cls, text):
        """Parse piped shorthand, e.g. ``"1|3|24"``."""
        groups = _parse_groups(text, "|", "letter")
        try:
            return cls(groups)
        except ValueError as exc:
            raise NotationError(str(exc)) from None

    @classmethod
    def from_parts(cls, composition):
        """View a set composition as a word of its parts."""
        return cls(composition.parts)

    def format(self, mode=None):
        return _format_groups(self.letters, "|", mode)

    def sort_key(self):
        return _format_groups(self.letters, "|", "extended")

    @property
    def length(self):
        return len(self.letters)

    @property
    def weight(self):
        return sum(len(letter) for letter in self.letters)

    def ground(self):
        return tuple(sorted(set().union(*map(set, self.letters)))) if self.letters else ()

    def prefix(self, i):
        """The first ``i`` letters."""
        if not 0 <= i <= len(self.letters):
            raise ValueError(f"prefix length {i} out of range")
        return Word._of(self.letters[:i])

    def suffix(self, i):
        """The letters after position ``i``."""
        if not 0 <= i <= len(self.letters):
            raise ValueError(f"suffix start {i} out of range")
        return Word._of(self.letters[i:])

    def __eq__(self, other):
        if not isinstance(other, Word):
            return NotImplemented
        return self.letters == other.letters

    def __hash__(self):
        return hash((Word, self.letters))

    def __iter__(self):
        return iter(self.letters)

    def __str__(self):
        return self.format()

    def __repr__(self):
        return f"Word({self.format() or chr(0x2205)!r})"


EMPTY_WORD = Word()


def disjoint(u, v):
    """True when no element appears in both words."""
    return not set(u.ground()).intersection(v.ground())


def _build(first, tails, out):
    for tail in tails:
        word = Word._of((first,) + tail.letters)
        assert word not in out, "quasi-shuffle produced a duplicate word"
        out.add(word)


def _qshuffle(u, v):
    if not u.letters:
        return {v}
    if not v.letters:
        return {u}
    a, b = u.letters[0], v.letters[0]
    out = set()
    _build(a, _qshuffle(u.suffix(1), v), out)
    _build(tuple(sorted(a + b)), _qshuffle(u.suffix(1), v.suffix(1)), out)
    _build(b, _qshuffle(u, v.suffix(1)), out)
    return out


def quasi_shuffle(u, v):
    """All interleavings of two disjoint words where facing letters may merge.

    Recursion on the leading letters a of u and b of v: keep a, merge a with
    b into one letter, or keep b; a word of the empty word shuffles to itself.
    """
    if not disjoint(u, v):
        raise ValueError("quasi-shuffle operands must be disjoint words")
    return _qshuffle(u, v)


def left_quasi_shuffle(u, v):
    """The quasi-shuffles whose first letter contains the first letter of u.

    Only the first two branches of the quasi-shuffle recursion, applied once;
    the tails run through full quasi-shuffles.  Operands must be nonempty and
    disjoint.
    """
    if not u.letters or not v.letters:
        raise ValueError("left quasi-shuffle needs nonempty operands")
    if not disjoint(u, v):
        raise ValueError("quasi-shuffle operands must be disjoint words")
    a, b = u.letters[0], v.letters[0]
    out = set()
    _build(a, _qshuffle(u.suffix(1), v), out)
    _build(tuple(sorted(a + b)), _qshuffle(u.suffix(1), v.suffix(1)), out)
    return out


def pairing(w, u, v):
    """Toggle the first letter of v between standalone and merged placement.

    A fixed-point-free involution on the left quasi-shuffles of (u, v) that
    changes the letter count by exactly one, so paired words carry opposite
    length parities.
    """
    if w not in left_quasi_shuffle(u, v):
        raise ValueError("word is not a left quasi-shuffle of the given pair")
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
    sets to split {1..r} disjointly.
    """
    left = frozenset(keep_left)
    right = frozenset(keep_right)
    full = frozenset(range(1, r + 1))
    if 1 not in left:
        raise ValueError("the left part must contain 1")
    if left == full:
        raise ValueError("the left part must be a proper subset")
    if left & right or (left | right) != full:
        raise ValueError(f"parts must split {{1..{r}}} disjointly")
    acc = {}
    for gamma in anchored_compositions(r):
        sign = -1 if gamma.length % 2 else 1
        pair = (
            Word._of(gamma.restrict(left).parts),
            Word._of(gamma.restrict(right).parts),
        )
        acc[pair] = acc.get(pair, 0) + sign
    return {pair: c for pair, c in acc.items() if c}


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


def tree_leaves(tree):
    """Leaves of a bracket tree, left to right."""
    if isinstance(tree, tuple) and len(tree) == 2:
        return tree_leaves(tree[0]) + tree_leaves(tree[1])
    return (tree,)


def bracket_format(tree, render=str):
    """Render a bracket tree as nested commutators, e.g. ``[a,[[a,b],b]]``."""
    if isinstance(tree, tuple) and len(tree) == 2:
        return f"[{bracket_format(tree[0], render)},{bracket_format(tree[1], render)}]"
    return render(tree)
