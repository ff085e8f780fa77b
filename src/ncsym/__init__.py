"""Exact Hopf-algebra computations on set partitions in the powersum basis.

The public surface re-exports the combinatorial types (set partitions, set
compositions, words), the algebra layer (elements, product, coproduct,
antipodes, primitive generators, the Hall basis machinery), and the
verification sweeps behind the ``ncsym verify`` command.
"""

from .setparts import (
    EMPTY_COMPOSITION,
    EMPTY_PARTITION,
    WORK_LIMIT,
    NotationError,
    SetComposition,
    SetPartition,
    anchored_compositions,
    atomic_set_partitions,
    compositions_of,
    parse,
    refinements,
    set_compositions,
    set_partitions,
)
from .words import (
    EMPTY_WORD,
    Word,
    bracket_format,
    disjoint,
    hall_tree,
    is_lyndon,
    left_quasi_shuffle,
    lyndon_split,
    pairing,
    quasi_shuffle,
    restriction_tensor_sum,
    word_restrict,
)
from .hopf import (
    NCSymElement,
    TensorElement,
    antipode,
    antipode_direct,
    antipode_direct_terms,
    antipode_factored,
    antipode_oracle,
    atom_key,
    convolve,
    coproduct,
    counit,
    format_element,
    format_tensor,
    hall_primitive,
    hall_span_check,
    leading_term,
    lyndon_atom_words,
    partition_key,
    primitive,
    primitive_space_dimension,
    product,
    reduced_coproduct,
)
from .linalg import integer_rank

__version__ = "0.1.0"
