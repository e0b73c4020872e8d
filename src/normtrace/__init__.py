"""Exact-arithmetic toolkit for norm-trace curves, their automorphism
groups, and multi-point algebraic-geometric codes, plus the general
separated-polynomial curve classification machinery."""

from .gf import BudgetExceeded, FieldCtx, build_field, field_from_dict
from .curve import NormTraceCurve, P_INFINITY, Place, build_curve
from .rrspace import (basis_multipoint, basis_one_point, evaluate,
                      semigroup_gaps, semigroup_nongaps)
from .codes import (AGCode, build_code, designed_distance,
                    dimension_closed_form, extended_one_point_code,
                    min_distance_exhaustive, monomial_equivalence_check,
                    witness_codeword, witness_function)
from .autgroup import (CodeAut, CurveAut, code_action, enumerate_group,
                       is_code_automorphism, short_orbits)
from .sepcurve import (AffineMaps, ClassificationResult, HBound,
                       SeparatedCurveSpec, brute_force_stabilizer_search,
                       classify, h_bound_from_roots, linearization_gcd,
                       norm_trace_spec, spec_from_dict, to_standard_qm,
                       validate)

__version__ = "0.1.0"
