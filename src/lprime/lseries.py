"""Evaluation of L(s, f) = sum f(n)/n^s and of L'(0, f).

Three routes to the derivative at 0 are kept so they can cross-check
each other.  They share precision helpers of ``numkernel``
(``prec_bits`` and ``_working_digits``, which turn each route's own
error bound into working digits), not algorithms:

* ``l_deriv`` differentiates the integer Euler-Maclaurin series of
  ``l_value`` term-wise,
* ``l_deriv0_closed`` sums the closed form over log Gamma values from
  mpmath's ``mpf_loggamma``,
* ``l_deriv0_even`` uses the half-support log-sine sum available for
  even Dirichlet-type functions, by the integer sine recurrence.

At s = 0 the series of ``l_deriv`` is itself the log-Gamma closed form:
with one shift N = max(10, ceil(0.8 d)) for all residues, w_a = N + a/q,
m_a = q w_a and P_a = a (a + q) ... (m_a - q), it is
sum_a f(a) ((w_a - 1/2) log m_a - w_a - log P_a + T_a), each log Gamma
summed by Stirling's series at w_a, T_a its Bernoulli tail (Lerch's
formula), and the log P_a of the residues that share a value of f taken
as one log of their product.  ``l_deriv0`` picks, for
``lprime eval --s 0`` and for the Unknown residual of
``classify.vanishing_verdict``, the log-sine sum of ``l_deriv0_even``
where it applies and its walk is no longer per residue than that series'
head (``_walk_is_shorter``), and the series otherwise; both are closed
forms at s = 0, and the report says "ClosedForm0" either way.
``relations.build_witness`` takes ``l_deriv0_even`` itself: its witness
is the paper's log-sine construction.

L(2, f) of an even f has a closed form from the same sines:
``l_value2_even`` takes (pi/q)^2 times sum_(a<q/2) f(a) csc^2(a pi/q)
+ f(q/2)/2 + f(q)/6, by Euler's zeta(2, x) + zeta(2, 1 - x) =
pi^2 csc^2(pi x), for units and non-units alike.  ``l_value2`` picks it
for ``lprime eval --s 2`` by the same rule, and ``l_value``, the series,
otherwise; ``l_value`` stays the series everywhere, the independent
check of the csc^2 sum.  At integer s <= 0, ``l_value`` is exact: the
Bernoulli polynomials summed as integer power sums of f.

Sign convention: L'(0, f) = -sum_{a<=q/2, (a,q)=1} f(a) log(2 sin(a pi/q)).
The shifted variant sum (f(a)-f(1)) log(2 sin(a pi/q)) that circulates in
the literature appears with either sign; differentiating L(s, f) fixes
the minus sign used here, and vanishing statements do not depend on it.

``family_rank`` is exact: linear independence of even Dirichlet-type
functions over a prime-power period is decided by one pass of fraction-free
integer echelon reduction over the half-support columns, never by floating
point.  Its certificate is the primitive integer vector that rational
elimination gives.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from fractions import Fraction
from math import ceil, gcd, lcm, log
from operator import neg

from mpmath import mp, mpf
from mpmath.libmp import from_int, from_rational, mpf_log, mpf_mul, mpf_pi, mpf_shift, mpf_sum, round_nearest

from .arith import half_units, is_prime_power
from .errors import ValidationError
from .numkernel import (
    RealLike,
    _em_first_shift,
    _working_digits,
    csc2_sum,
    log_gamma_frac,
    log_sine_sum,
    periodic_zeta,
    periodic_zeta_ds,
    prec_bits,
)
from .periodic import PeriodicFunction, half_support, require_even_dirichlet


def l_value(s: RealLike, f: PeriodicFunction, digits: int) -> mpf:
    """L(s, f) = q^(-s) sum_{a=1}^{q} f(a) zeta(s, a/q) at d digits, s != 1.

    One ``periodic_zeta``: a single Euler-Maclaurin head over every
    m <= Nq with f(m) != 0, with a root or power per term for a sparse f
    and at the primes only for a dense one, and one tail per residue.
    ``s`` is taken at its exact value, which picks the head's route, and
    near the pole it keeps s - 1.
    """
    return periodic_zeta(s, f.q, f.values, digits)


def l_deriv(s: RealLike, f: PeriodicFunction, digits: int) -> mpf:
    """L'(s, f) = -sum f(m) log(m) m^(-s) by term-wise differentiation.

    One ``numkernel.periodic_zeta_ds``: the derivative of the integer
    Euler-Maclaurin series of ``l_value``, with a root or power and a log
    per head term (one log per residue at s = 0) and one batched tail.
    """
    return periodic_zeta_ds(s, f.q, f.values, digits)


def l_deriv0_closed(f: PeriodicFunction, digits: int) -> mpf:
    """L'(0, f) by the log-Gamma closed form, for any periodic f.

    L'(0,f) = sum f(a) log Gamma(a/q) - log(q) sum f(a)(1/2 - a/q)
              - (1/2) log(2 pi) sum f(a),

    with each log Gamma(a/q) from ``numkernel.log_gamma_frac`` and the two
    sums over f exact rationals, each rounded to d + e digits: their exact
    products with the logs are summed by mpmath's ``mpf_sum`` and rounded
    once to d.

    Error.  Let W = sum |f(a)| and u = 2^-p, p = prec_bits(d + e).  Each
    log Gamma(a/q) lies in [0, log q] and is within u (1.06 + log q),
    taking mpmath's ``loggamma`` as within one unit in its last place.
    Each f(a) and each exact sum is rounded once, log q and log(2 pi) are
    within u log q and 1.5 u, and |sum f(a)(1/2 - a/q)| <= W/2.  So the
    dot product is within 4 u W (1 + log q) of L'(0, f) before its one
    rounding, and it runs at the ``_working_digits`` d + e of that bound,
    taken as the exact 4 W ceil(1 + log q): e = 0 while the bound is below
    10^13, and e grows by one digit per decade past it, so the value is
    within 10^(-d + 3.4) of L'(0, f), whatever the size of f.
    """
    q, values = f.q, f.values
    working = _working_digits(digits, 4 * sum(map(abs, values.values())) * ceil(1 + log(q)))
    wp = prec_bits(working)
    first = sum(c * (Fraction(1, 2) - Fraction(a, q)) for a, c in values.items())
    log_2pi = mpf_log(mpf_shift(mpf_pi(wp, round_nearest), 1), wp, round_nearest)
    terms = [(c, log_gamma_frac(a, q, working)._mpf_) for a, c in values.items()]
    terms += [(-first, mpf_log(from_int(q), wp, round_nearest)), (-Fraction(sum(values.values()), 2), log_2pi)]
    products = [mpf_mul(from_rational(c.numerator, c.denominator, wp, round_nearest), x) for c, x in terms]
    return mp.make_mpf(mpf_sum(products, prec_bits(digits), round_nearest))


def l_deriv0_even(f: PeriodicFunction, digits: int) -> mpf:
    """L'(0, f) = -sum over the half support of f(a) log(2 sin(a pi/q)).

    One ``log_sine_sum``: the residues that share a value of f share one
    product of sines, and the values that share a denominator one log.
    Requires f even and Dirichlet type with period >= 3: the reduction
    pairs a with q - a, and for q <= 2 the pairing degenerates (a = q/2 is
    its own partner), so those periods are rejected rather than silently
    mis-weighted.
    """
    if f.q < 3:
        raise ValidationError(
            f"half-support reduction needs period >= 3, got {f.q}; "
            "use the closed form for tiny periods"
        )
    pairs = half_support(f)
    # one negation per distinct value object, not per residue: the residues
    # share the value objects of f, and log_sine_sum groups by (num, den)
    distinct = {id(v): v for _, v in pairs}
    negated = dict(zip(distinct, map(neg, distinct.values())))
    return log_sine_sum(f.q, [(a, negated[id(v)]) for a, v in pairs], digits)


def l_value2_even(f: PeriodicFunction, digits: int) -> mpf:
    """L(2, f) = (pi/q)^2 (sum_(a<q/2) f(a) csc^2(a pi/q) + f(q/2)/2 + f(q)/6) for even f.

    One ``csc2_sum`` over the residues a <= q/2 and a = q where f is not
    0, units or not.  Requires f even, since the pairing of a with q - a
    turns their two Hurwitz values into one csc^2, and a period >= 3, as
    ``l_deriv0_even`` does.
    """
    if f.q < 3 or not f.even:
        raise ValidationError(f"the csc^2 sum needs an even f of period >= 3, got period {f.q}")
    return csc2_sum(f.q, [(a, c) for a, c in f.values.items() if 2 * a <= f.q or a == f.q], digits)


def _walk_is_shorter(f: PeriodicFunction, digits: int) -> bool:
    """Whether f is even, q >= 3 and the sine walk is no longer than the series' head.

    Each route is weighed by its loop length per residue it serves.  The
    sine walk of ``log_sine_sum`` and ``csc2_sum`` runs q // 2 steps for
    the |support| / 2 residues of the half support; the Euler-Maclaurin
    head runs N terms, N = ``_em_first_shift(d)``, for each residue of
    the support.  So the walk is taken where q // 2 <= (|support| / 2) N.
    """
    return f.q >= 3 and f.q // 2 <= len(f.values) // 2 * _em_first_shift(digits) and f.even


def l_deriv0(f: PeriodicFunction, digits: int) -> mpf:
    """L'(0, f) by the shorter of two routes: ``l_deriv0_even`` or ``l_deriv(0, f)``.

    The log-sine sum is taken where ``_walk_is_shorter`` and f is of
    Dirichlet type, and the series everywhere else.  The one route rule
    for L'(0, f): ``lprime eval --s 0`` and the Unknown residual of
    ``classify.vanishing_verdict`` both take it, so a sparse f at a large
    q walks no q/2 sines in either.
    """
    if _walk_is_shorter(f, digits) and f.dirichlet:
        return l_deriv0_even(f, digits)
    return l_deriv(0, f, digits)


def l_value2(f: PeriodicFunction, digits: int) -> mpf:
    """L(2, f) by the shorter of two routes: ``l_value2_even`` or ``l_value(2, f)``.

    The csc^2 sum is taken where ``_walk_is_shorter``, for any even f, and
    the series everywhere else.
    """
    if _walk_is_shorter(f, digits):
        return l_value2_even(f, digits)
    return l_value(2, f, digits)


# ---------------------------------------------------------------------------
# Exact rank criterion

@dataclass(frozen=True)
class RankResult:
    rank: int
    independent: bool
    certificate: list[int] | None

    def to_json_dict(self) -> dict:
        return asdict(self)


def family_rank(fs: list[PeriodicFunction]) -> RankResult:
    """Exact linear (in)dependence of even Dirichlet-type functions.

    All functions must share one prime-power period q.  Over such q the
    derivative values L'(0, f_i) are independent exactly when the f_i
    are, so the verdict comes from the rows [f_i(a)] over the
    half-support columns, in one pass: each row is reduced against the
    echelon list of the earlier independent rows, augmented by the
    combination of the f_i it equals.  The rank is the length of that
    list.  When dependent, the first row whose value part reduces to zero
    gives the certificate from its combination part: the unique
    expression of that first dependent f_j through the earlier
    independent f_i, as the primitive integer vector c (first non-zero
    entry positive) with sum_i c_i L'(0, f_i) = 0.

    The reduction is fraction-free, on one integer row per function: its
    values den_i f_i over their common denominator den_i, then its
    combination den_i e_i.  Each step cross-multiplies by the two pivot
    entries, which lie in the value part, and divides the row by its gcd,
    so it stays integer with values = sum_j combination_j f_j throughout.
    Each value part is a non-zero multiple of the one rational elimination
    gives, so the pivots, the rank and the (unique up to scale)
    certificate are the same.
    """
    if not fs:
        raise ValidationError("need at least one function")
    q = fs[0].q
    if any(f.q != q for f in fs):
        raise ValidationError("all functions must share the same period")
    if not is_prime_power(q):
        raise ValidationError(
            f"rank criterion requires a prime-power period, got q = {q}"
        )
    for f in fs:
        require_even_dirichlet(f)

    columns = half_units(q)
    echelon: list[tuple[int, list[int]]] = []  # (pivot, augmented row)
    certificate = None
    for i, f in enumerate(fs):
        values = [f.values.get(a, 0) for a in columns]
        den = lcm(*(v.denominator for v in values))
        row = [v.numerator * (den // v.denominator) for v in values]
        row += [den if j == i else 0 for j in range(len(fs))]
        for pivot, prow in echelon:
            b = row[pivot]
            if b:
                a = prow[pivot]
                row = [a * x - b * y for x, y in zip(row, prow)]
                g = gcd(*row)
                row = [x // g for x in row]
        pivot = next((j for j in range(len(columns)) if row[j]), None)
        if pivot is not None:
            echelon.append((pivot, row))
        elif certificate is None:
            certificate = _primitive_integers(row[len(columns):])
    rank = len(echelon)
    return RankResult(rank=rank, independent=rank == len(fs), certificate=certificate)


def _primitive_integers(vec: list[int]) -> list[int]:
    """Divide a non-zero integer vector to coprime integers, first non-zero positive."""
    g = gcd(*vec)
    if next(x for x in vec if x) < 0:
        g = -g
    return [x // g for x in vec]
