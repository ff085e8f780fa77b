"""JSON encodings for the library's values.

Partitions, compositions, and words encode as nested arrays of ints.
Elements encode as ``{"terms": [{"coeff": "<signed decimal string>",
"partition": [[...], ...]}, ...]}`` with terms sorted by the canonical
partition string; coefficients travel as decimal strings, so they survive
any JSON reader bit-exactly up to the interpreter's limit on int/str
conversion (``sys.get_int_max_str_digits()``, 4 300 digits by default, 0 for
none): the decoders refuse a longer digit string, and encoding a longer
coefficient raises the interpreter's own ``ValueError``.  Tensor
combinations use the same shape with ``"left"``/``"right"`` factors.  The
three ``*_from_obj`` decoders of partitions, compositions and words are the
validating constructors ``SetPartition``, ``SetComposition`` and ``Word``
under a second name.
"""

from __future__ import annotations

import sys

from .hopf import NCSymElement, TensorElement
from .setparts import SetComposition, SetPartition
from .words import Word

__all__ = [
    "partition_to_obj",
    "partition_from_obj",
    "composition_to_obj",
    "composition_from_obj",
    "word_to_obj",
    "word_from_obj",
    "element_to_obj",
    "element_from_obj",
    "tensor_to_obj",
    "tensor_from_obj",
]


def partition_to_obj(value):
    """The groups of a partition, a composition or a word as int lists; the
    three ``*_to_obj`` names of those types are this one function."""
    return [list(group) for group in value.groups]


composition_to_obj = word_to_obj = partition_to_obj
partition_from_obj, composition_from_obj, word_from_obj = SetPartition, SetComposition, Word


def _coeff_from(text):
    """The int of a coefficient string of exactly -?[0-9]+ in ASCII: ``int``
    alone would also take signs, spaces, underscores and non-ASCII digits.
    More digits than the interpreter converts are refused first."""
    digits = text.removeprefix("-") if isinstance(text, str) else ""
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"coefficient must be a decimal string, got {text!r}")
    limit = sys.get_int_max_str_digits()
    if limit and len(digits) > limit:
        raise ValueError(f"coefficient has {len(digits)} digits, over the limit of {limit}")
    return int(text)


def _terms_to_obj(x, key_fields):
    """Terms of ``x`` in canonical key order, each its coefficient string
    followed by the fields of its key."""
    return {"terms": [{"coeff": str(coeff), **key_fields(key)} for key, coeff in x.items()]}


def _terms_from_obj(cls, obj, key_of):
    """Validated ``cls`` combination of the terms of ``obj``."""
    return cls((key_of(term), _coeff_from(term["coeff"])) for term in obj["terms"])


def element_to_obj(x):
    return _terms_to_obj(x, lambda part: {"partition": partition_to_obj(part)})


def element_from_obj(obj):
    return _terms_from_obj(NCSymElement, obj, lambda term: partition_from_obj(term["partition"]))


def tensor_to_obj(t):
    return _terms_to_obj(
        t, lambda pair: {"left": partition_to_obj(pair[0]), "right": partition_to_obj(pair[1])}
    )


def tensor_from_obj(obj):
    return _terms_from_obj(
        TensorElement,
        obj,
        lambda term: (partition_from_obj(term["left"]), partition_from_obj(term["right"])),
    )
