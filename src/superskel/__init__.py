"""Exact symbolic calculus for superdomain morphisms.

Arithmetic in finite-rank Grassmann algebras over the rationals, scalar
superfunctions with rational-function coefficients, skeletons of superdomain
morphisms, their extension to maps on lambda-points (by substitution and by
the exact nilpotent Taylor sum), difference-quotient calculus, composition by
substitution and by the combinatorial formula, the point/evaluation
dictionary, and supermanifolds as verified gluing data.  Everything is exact:
all identities are checked with zero tolerance.

The CLI entry point is ``superskel``; see the README for file formats.
"""

from .atlas import (GluingData, ManifoldPoint, check_cocycle, check_global_morphism,
                    projective_superline, superline_squaring_map, transport)
from .calculus import (BGNQuotient, DerivativeData, HadamardDecomposition, HadamardFactor,
                       bgn_quotient, check_def43, check_lambda_linearity, check_taylor,
                       derivative, hadamard_decompose, taylor_increment,
                       taylor_polynomial, taylor_remainder_vanishes)
from .continuation import (check_naturality, default_morphism_battery, eval_subst,
                           eval_taylor, taylor_shells, truncation_consistent)
from .errors import (DigitCapError, DomainError, NotInvertibleError, ParityError, ParseError,
                     RankCapError, RankMismatchError, SpaceMismatchError, SuperskelError)
from .grassmann import GrassmannElement, GrassmannMorphism, max_rank
from .morphisms import (PointEvaluation, check_algebra_morphism, compose_formula,
                        compose_subst, decode_point, substitute_superfunction)
from .poly import Polynomial, RationalFunction
from .report import CheckItem, CheckReport
from .spaces import DeWittDomain, LambdaPoint, SuperSpace, Vector
from .superfn import Skeleton, SuperFunction, mul_shuffle

__version__ = "0.1.0"

__all__ = [
    "BGNQuotient", "CheckItem", "CheckReport", "DerivativeData", "DeWittDomain", "DigitCapError",
    "DomainError", "GluingData", "GrassmannElement", "GrassmannMorphism",
    "HadamardDecomposition", "HadamardFactor", "LambdaPoint", "ManifoldPoint",
    "NotInvertibleError", "ParityError", "ParseError", "PointEvaluation",
    "Polynomial", "RankCapError", "RankMismatchError", "RationalFunction",
    "Skeleton", "SpaceMismatchError", "SuperFunction", "SuperSpace", "SuperskelError",
    "Vector", "bgn_quotient", "check_algebra_morphism", "check_cocycle",
    "check_def43", "check_global_morphism", "check_lambda_linearity",
    "check_naturality", "check_taylor", "compose_formula", "compose_subst",
    "decode_point", "default_morphism_battery", "derivative",
    "eval_subst", "eval_taylor", "hadamard_decompose",
    "max_rank", "mul_shuffle",
    "projective_superline", "substitute_superfunction",
    "superline_squaring_map", "taylor_increment", "taylor_polynomial",
    "taylor_remainder_vanishes", "taylor_shells", "transport",
    "truncation_consistent",
]
