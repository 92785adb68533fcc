"""Type-A Lie poset algebras from finite posets: exact index machinery,
contact classification for heights up to two, and order-complex homology."""

from .cohomology import ce_cohomology_dims
from .complexes import (
    SimplicialComplex,
    betti_numbers,
    check_morse,
    order_complex,
    verify_acyclic,
)
from .contact import (
    BLOCKS,
    CONTACT_RULES,
    RULES,
    ContactSequence,
    GluingStep,
    apply_gluing,
    build_contact_form,
    classify_h2,
    cycle_obstruction,
    disconnected_contact_form,
    expected_kernel,
    find_contact_sequence,
    generate_contact_replays,
    index_contribution,
    is_contact,
    verify_contact_form,
)
from .liealg import (
    Functional,
    LieAlgebra,
    build_raw,
    build_type_a,
    center,
    center_dim,
    extended_matrix,
    index,
    index_certified,
    index_formula_h2,
    is_frobenius_h2,
    kirillov_matrix,
)
from .linalg import RationalMatrix
from .posets import (
    Poset,
    are_isomorphic,
    canonical_form,
    complete_poset,
    disjoint_sum,
    enumerate_posets,
    extremal_data,
    interior_neighborhood,
    is_forest,
    make_poset,
    up_down,
)

__version__ = "0.1.0"
