"""Meromorphic continuation data and arbitrary-precision evaluation of
Dirichlet series attached to generating series with at most a pole at z=1.

The pipeline: a descriptor for alpha(z) = sum a_{n+1} z^n yields Laurent
data at z=1 (:mod:`tamezeta.tame`), a Todd series and Bernoulli polynomials
(:mod:`tamezeta.bernoulli`), closed-form pole/residue/special-value reports
(:mod:`tamezeta.continuation`), numerical continuation through a globally
convergent difference-operator series plus independent oracles
(:mod:`tamezeta.numeval`), and the inverse reconstruction from prescribed
continuation data (:mod:`tamezeta.reconstruct`).
"""
from .scalar import ApproxContext, BigComplex, Rational, agree_within, binomial
from .series import Poly, RationalFn, TruncSeries, compose, recenter, series_pow_log_factor
from .tame import (
    BarnesDescriptor,
    BuiltinDescriptor,
    CharacterDescriptor,
    EhrhartDescriptor,
    LaurentAtOne,
    LerchDescriptor,
    MultiPowerExpansion,
    NotTameError,
    RationalDescriptor,
    build_multipower,
    coeffs,
    laurent_at_one,
    plan_exponents,
)
from .bernoulli import (
    ToddSeries,
    bernoulli_number,
    bernoulli_poly,
    diff_apply_poly,
    stirling1_signed,
    stirling2,
    todd_apply,
    todd_series,
)
from .continuation import ContinuationReport, analyze, analyze_split, classify_argument
from .reconstruct import (
    ContinuationData,
    dirichlet_from_data,
    laurent_from_polys,
    polys_from_values,
    principal_from_poles,
)
from .numeval import (
    EvalResult,
    NearPoleError,
    NumericalEvalError,
    RegionError,
    SlowConvergenceError,
    continue_dirichlet,
    direct_sum,
    hasse_eval,
    hurwitz_oracle,
    incgamma_eval,
    oracle_eval,
)
from .catalog import CATALOG_NAMES, catalog_descriptor

__version__ = "0.1.0"
