"""Exact matrix-valued orthogonal polynomials from spherical functions on
the 3-sphere, with a numeric group-level reconstruction layer."""

from .gaussian import GaussianRational, format_gaussian
from .polynomials import (Polynomial, MatrixPolynomial,
                          matpoly_inverse_triangular)
from .hypergeometric import hyp_terminating, hahn_value, racah_value
from .structure import (StructureSet, build_structures, build_L, EigenLedger,
                        eigen_ledger)
from .family import (FamilyPackage, coeffs_by_recursion, coeffs_by_racah,
                     build_Pw, build_family, eval_H)
from .operators import (MatrixODEOperator, build_operator, apply, conjugate,
                        commutator_check)
from .orthogonality import (build_weight, chebyshev_moment, symmetry_check,
                            ldu_decompose, commutant)

__version__ = "0.1.0"
