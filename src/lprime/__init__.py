"""Special values of derivatives of L-functions of periodic functions.

High-precision evaluation of L(s, f) and L'(0, f) for rational-valued
periodic arithmetic functions, exact classification of moduli by when
L'(0, f) can vanish non-trivially, and construction plus integer-relation
rediscovery of explicit vanishing witnesses.
"""

from .arith import (
    Character,
    character_half_sum,
    coset_relations,
    euler_phi,
    factorize,
    lift_character,
    mult_order,
    quadratic_character,
    root_type,
    RootType,
)
from .classify import Classification, VanishingVerdict, VerdictKind, classify_modulus, vanishing_verdict
from .errors import (
    ComputationError,
    ConvergenceError,
    HalfSumMismatchError,
    LPrimeError,
    NotAdmissibleError,
    PoleError,
    PrecisionError,
    ValidationError,
)
from .lseries import RankResult, family_rank, l_deriv, l_deriv0_closed, l_deriv0_even, l_value
from .numkernel import (
    bernoulli,
    hurwitz_zeta,
    hurwitz_zeta_ds,
    log_gamma_frac,
    log_sine_sum,
    two_sin_pi,
    two_sines,
)
from .periodic import PeriodicFunction, constant_on_units, from_character, half_support, validate
from .relations import (
    LogSineBasis,
    Relation,
    WitnessResult,
    build_witness,
    find_integer_relation,
    find_relation_for_modulus,
    log_sine_basis,
    ramachandra_admissible,
    sine_identity_residual,
)

__version__ = "0.1.0"
