"""Automorphism words on complex coordinate-hyperplane complements.

Explicit generators (overshears, permutations, diagonal and linear
maps, coordinate inversions), composition and inversion, Jacobian
determinants, domain preservation checks, torus centralizer tests with
diagonal extraction, winding-number component invariants, and certified
homotopy paths to the identity. A JSON-driven CLI exposes every
operation; see `hologroup --help`.
"""

from .domains import (DomainClass, FullSpace, HyperplaneComplement,
                      PreservationVerdict, Punctured, classify_domain, contains,
                      word_preserves_domain)
from .errors import (BudgetExhausted, DimensionMismatch, DomainNotPreserved,
                     HoloError, InvalidAxis, NonFinite, NonInvertibleStep,
                     NotDiagonal, NotUnimodular, OutOfRange, OutsideDomain,
                     SceneError, SingularPoint, ZeroOnContour)
from .homotopy import (SIN_BUMP, BumpFunction, CertificationReport, HomotopyPath,
                       OvershearPath, TranspositionPath, certify_path,
                       continuity_modulus, path_det, path_target, sample_polydisc)
from .polynomials import Poly
from .torus import (CentralizerVerdict, CentralizerWitness, commutes_with_torus,
                    extract_diagonal, integer_det, sample_points, validate_exponent_matrix)
from .winding import (ContourSpec, IndexResult, in_negative_component, make_contour,
                      winding_index)
from .words import (TAU_DET, Diagonal, GeneratorStep, Inversion, Linear,
                    Overshear, Permutation, Word, compose, eval_word,
                    eval_word_batch, eval_word_batch_masked, invert_word,
                    jacobian_det, jacobian_det_batch)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # errors
    "HoloError", "DimensionMismatch", "SingularPoint", "NonInvertibleStep",
    "NotUnimodular", "NotDiagonal", "InvalidAxis", "OutsideDomain",
    "ZeroOnContour", "BudgetExhausted", "OutOfRange", "NonFinite",
    "DomainNotPreserved", "SceneError",
    # polynomials
    "Poly",
    # words
    "TAU_DET", "GeneratorStep", "Overshear", "Permutation", "Diagonal",
    "Linear", "Inversion", "Word", "compose", "eval_word", "eval_word_batch",
    "eval_word_batch_masked", "invert_word", "jacobian_det",
    "jacobian_det_batch",
    # domains
    "FullSpace", "Punctured", "HyperplaneComplement", "DomainClass",
    "PreservationVerdict", "contains", "classify_domain",
    "word_preserves_domain",
    # torus
    "integer_det", "validate_exponent_matrix", "CentralizerVerdict",
    "CentralizerWitness", "commutes_with_torus", "extract_diagonal", "sample_points",
    # winding
    "ContourSpec", "IndexResult", "make_contour", "winding_index", "in_negative_component",
    # homotopy
    "BumpFunction", "SIN_BUMP", "OvershearPath", "TranspositionPath",
    "HomotopyPath", "path_det", "path_target", "certify_path",
    "continuity_modulus", "sample_polydisc", "CertificationReport",
]
