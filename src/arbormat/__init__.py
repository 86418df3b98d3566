"""Exact-arithmetic toolkit for transition matrices of vertex maps on trees.

Builds oriented and unoriented transition matrices of single-cycle vertex
maps on trees, verifies their algebraic invariants (characteristic
polynomials, determinants, similarity over prime fields, change-of-basis
witnesses, sign-condition reductions) in exact arithmetic, and sweeps whole
instance spaces deterministically.
"""

from .algebra import (
    ExactMatrix,
    ExactPolynomial,
    companion,
    geometric_poly,
    invariant_factors,
    reduce_mod,
)
from .dynamics import (
    TransitionMatrices,
    VertexMap,
    oriented_matrix,
    parse_map,
    path_image_check,
)
from .rings import GF, QQ, ZZ
from .theorems import (
    BasisWitness,
    ClaimResult,
    ClaimStatus,
    InstanceReport,
    SignReduction,
    basis_witness,
    geometric_sum_is_zero,
    odd_coefficients_check,
    petrie_check,
    split_sign_check,
    step_residues,
    uniform_sign_check,
    verify_instance,
    z2_similarity_to_companion,
    zp_similarity,
)
from .trees import (
    Orientation,
    Tree,
    canonical_form,
    decode_prufer,
    enumerate_trees,
    parse_tree,
    same_direction_orientation,
)

__version__ = "0.1.0"

__all__ = [
    "ExactMatrix",
    "ExactPolynomial",
    "companion",
    "geometric_poly",
    "invariant_factors",
    "reduce_mod",
    "TransitionMatrices",
    "VertexMap",
    "oriented_matrix",
    "parse_map",
    "path_image_check",
    "GF",
    "QQ",
    "ZZ",
    "BasisWitness",
    "ClaimResult",
    "ClaimStatus",
    "InstanceReport",
    "SignReduction",
    "basis_witness",
    "geometric_sum_is_zero",
    "odd_coefficients_check",
    "petrie_check",
    "split_sign_check",
    "step_residues",
    "uniform_sign_check",
    "verify_instance",
    "z2_similarity_to_companion",
    "zp_similarity",
    "Orientation",
    "Tree",
    "canonical_form",
    "decode_prufer",
    "enumerate_trees",
    "parse_tree",
    "same_direction_orientation",
    "__version__",
]
