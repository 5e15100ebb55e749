"""Log-sine bases, the sine product identity, integer-relation detection,
and explicit vanishing witnesses.

The basis for a modulus q is the family log(2 sin(a pi/q)) over the
half-range coprime residues, optionally extended by pi and log 2.  Two
residues are excluded because their value is a rational power of 2 and
can never take part in an independence statement: a/q = 1/6 (value
log 1 = 0) and a/q = 1/4 (value (1/2) log 2).  In lowest terms those
only occur at q = 6 and q = 4 respectively.

``find_relation_for_modulus`` returns an integer vector c with
sum c_a * log(2 sin(a pi/q)) + c_pi pi + c_2 log 2 = 0 (the last two
terms on an extended basis only), and takes it from theory, with no
search and with no basis built.  Without the extension the candidate is
the first of the coset relations of ``arith.coset_relations``, which
span every relation, so a prime power (which has none) returns None.
Extended by pi and log 2 it is the same relation with c_pi = c_2 = 0.
No relation involves pi: pi = -i log(-1), log(-1) is linearly
independent over Q of the real logs, and Baker's theorem makes it
independent over the algebraic numbers too.  log 2 takes part only at
q = 2^n, n >= 3 (``arith.has_log2_relation``), where the half support
sums to (1/2) log 2 and the one relation is (2, ..., 2, 0, -1).  Both
residuals of the candidate, at d and at 2d digits, are one
``log_sine_sum`` of its coefficients from sines computed afresh, plus
its log 2 term; the candidate is accepted only on the 2d one, so a
returned relation carries a two-precision numerical certificate.
``find_integer_relation`` takes a basis for the same answer and reads
only its modulus and extension.  ``log_sine_basis`` has no library
caller: it is the numeric basis of the cross-check, and
``pslq_relation`` the blind search the tests and demos cross-check
these answers with.  Every value of this module is a ``log_sine_sum``
plus mpmath's ``mpf_ln2`` and ``mpf_pi`` at ``prec_bits(d)``, rounded
once: a residual is one, and the basis entries are the one-term sums of
``log_sines``, from one sine walk for all of them; only ``pslq_relation``
builds an mpmath context, for mpmath's ``pslq``.

Note on non-uniqueness: for composite q the relation space can have
rank greater than one (the coset relations of every prime dividing q),
and the finder returns one relation, not a basis of the space.  It takes
the shortest, preferring a relation without a = 1 and then the smallest
sorted residue list; a Ramachandra witness f = chi - 1 is -2 on exactly
such a coset, so where the witness is among the shortest it is the one
returned (q = 55).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from mpmath import mp, mpf, nstr
from mpmath.ctx_mp import MPContext
from mpmath.libmp import from_int, mpf_abs, mpf_add, mpf_ln2, mpf_mul, round_nearest, to_rational

from .arith import (
    Character,
    character_half_sum,
    coset_relations,
    factorize,
    half_units,
    has_log2_relation,
    lift_character,
    quadratic_character,
)
from .errors import HalfSumMismatchError, NotAdmissibleError, PrecisionError, ValidationError, require_int
from .lseries import _primitive_integers, l_deriv0_even
from .numkernel import log2_const, log_sine_sum, log_sines, pi_const, prec_bits, require_digits
from .periodic import PeriodicFunction, from_character


@dataclass(frozen=True)
class LogSineBasis:
    q: int
    digits: int
    entries: list[tuple[int, mpf]]
    excluded: list[int]
    extended: list[tuple[str, mpf]] | None = None

    def all_values(self) -> list[mpf]:
        vals = [v for _, v in self.entries]
        if self.extended:
            vals += [v for _, v in self.extended]
        return vals


@dataclass(frozen=True)
class Relation:
    """Integer relation among basis values, certified at two precisions.

    ``pi_coefficient`` and ``verified_at_2d`` are class constants, not
    fields: the pi coefficient is always 0, since no relation involves
    pi, and every relation is verified at 2d, since only a candidate that
    passes the 2d gate is returned.  The report keeps both so that its
    schema stays fixed.
    """

    pi_coefficient = 0
    verified_at_2d = True

    q: int
    digits: int
    coefficients: dict[int, int]
    log2_coefficient: int
    residual_at_d: mpf
    residual_at_2d: mpf

    def to_json_dict(self) -> dict:
        return {
            "q": self.q,
            "digits": self.digits,
            "coefficients": {str(a): c for a, c in sorted(self.coefficients.items())},
            "pi": self.pi_coefficient,
            "log2": self.log2_coefficient,
            "residual_at_d": nstr(self.residual_at_d, 8),
            "residual_at_2d": nstr(self.residual_at_2d, 8),
            "verified_at_2d": self.verified_at_2d,
        }


def _basis_residues(q: int) -> tuple[list[int], list[int]]:
    """(residues, excluded): the half support of q split by the 6a = q, 4a = q rule."""
    require_int(q, 3, "basis needs q")
    residues, excluded = [], []
    for a in half_units(q):
        if 6 * a == q or 4 * a == q:
            excluded.append(a)
        else:
            residues.append(a)
    return residues, excluded


def log_sine_basis(q: int, digits: int, extended: bool = False) -> LogSineBasis:
    """Basis entries (a, log(2 sin(a pi/q))) for coprime a <= q/2.

    The entries are one ``log_sines`` call: one sine walk for all of
    them, each entry bit for bit the ``log_sine_sum`` with the one
    coefficient 1.
    Residues with 6a = q or 4a = q are excluded (rational powers of 2; in
    lowest terms this only fires for q = 6 and q = 4).  When ``extended``
    is set, pi and log 2 are appended.  No library route builds one: it is
    the numeric basis of the PSLQ cross-check, while the finder evaluates
    its candidate with ``log_sine_sum``.
    """
    residues, excluded = _basis_residues(q)
    entries = list(zip(residues, log_sines(q, residues, digits)))
    ext = None
    if extended:
        ext = [("pi", pi_const(digits)), ("log2", log2_const(digits))]
    return LogSineBasis(q=q, digits=digits, entries=entries, excluded=excluded, extended=ext)


def sine_identity_residual(q: int, digits: int) -> mpf:
    """sum over coprime 1 <= k <= q-1 of log(2 sin(k pi/q)).

    Equals 0 when q has at least two distinct prime factors and log p
    when q = p^n: the product of the 2 sin values is the cyclotomic
    polynomial evaluated at 1.  Computed as twice the sum over the half
    support k <= q/2, since sin(k pi/q) = sin((q-k) pi/q) and, for
    q >= 3, no coprime k equals q - k.  Every coefficient is 2, so
    ``log_sine_sum`` takes one log: twice the log of the half-support
    product of the 2 sin values.
    """
    require_int(q, 3, "identity needs q")
    return log_sine_sum(q, [(k, 2) for k in half_units(q)], digits)


MIN_DETECTION_DIGITS = 5


def pslq_relation(values: list[mpf], max_coeff: int, digits: int) -> list[int] | None:
    """Detection only: PSLQ at d digits with tolerance 10**-(d-10).

    Returns a primitive integer vector c, first non-zero entry positive,
    with |sum c_i values_i| below the tolerance and max|c_i| <= max_coeff,
    or None.  Deterministic for
    fixed inputs; callers wanting a certificate must re-verify the
    combination at higher precision themselves.  ``find_integer_relation``
    never calls it: this blind search is the independent cross-check of
    the relations it takes from theory.  mpmath's ``pslq`` runs in an
    mpmath context, so each call builds its own at ``prec_bits(d)``: the
    one context of the library.
    """
    _require_detectable(len(values), max_coeff, digits)
    ctx = MPContext()
    ctx.prec = prec_bits(digits)
    candidate = ctx.pslq(
        values,
        tol=ctx.mpf(10) ** (-(digits - 10)),
        # mpmath's pslq keeps a vector only when max|c| < maxcoeff
        maxcoeff=max_coeff + 1,
        maxsteps=500_000,
    )
    if candidate is None or max(abs(c) for c in candidate) > max_coeff:
        return None
    # a column of PSLQ's unimodular integer matrix is primitive, so only
    # the sign rule acts: first non-zero coefficient positive
    return _primitive_integers(candidate)


def _require_detectable(n_values: int, max_coeff: int, digits: int) -> None:
    require_digits(digits)
    require_int(max_coeff, 1, "max_coeff must be")
    if n_values < 2:
        raise ValidationError("relation detection needs at least two values")
    if digits - 10 < MIN_DETECTION_DIGITS:
        raise PrecisionError(
            f"detection scale 10^{digits - 10} underflows; need digits >= "
            f"{MIN_DETECTION_DIGITS + 10}"
        )


def find_relation_for_modulus(
    q: int, max_coeff: int, digits: int, extended: bool = False
) -> Relation | None:
    """The integer relation of q's log-sine basis, accepted only after 2d verification.

    The basis is log(2 sin(a pi/q)) over the half support without
    6a = q and 4a = q, followed by pi and log 2 when ``extended`` is
    set; the finder computes its residues and never its values.  The
    candidate comes from theory.  Without the extension it is the first
    vector of ``coset_relations(q)`` (all coefficients 1, so within any
    ``max_coeff``).  Extended, it is that vector restricted to the basis
    residues, followed by 0 for pi and 0 for log 2; at q = 2^n, n >= 3,
    it is (2, ..., 2) followed by 0 and -1, and only when
    ``max_coeff >= 2``.  None when there is no candidate: at prime
    powers, at q = 6 extended (its one coset relation lies on the
    excluded a = 1), and at q = 2^n with ``max_coeff = 1``.  The
    candidate's residual is one ``log_sine_sum`` of its log-sine
    coefficients plus its log 2 term, computed afresh at ``digits`` and
    at 2*digits; it is kept only if the one at 2*digits stays below
    10**(-2*digits+10), compared exactly.  ``digits`` and ``max_coeff``
    are checked as a search over the basis would need them.
    Deterministic for fixed inputs.
    """
    residues, _ = _basis_residues(q)
    _require_detectable(len(residues) + 2 * extended, max_coeff, digits)
    if extended and has_log2_relation(q):
        # the half support sums to (1/2) log 2; the relation needs |c| = 2
        coeffs, log2_c = ({a: 2 for a in residues} if max_coeff >= 2 else {}), -1
    else:
        first = set(next(iter(coset_relations(q)), ()))
        coeffs, log2_c = {a: 1 for a in residues if a in first}, 0
    if not coeffs:
        return None
    residual_2d = _relation_residual(q, coeffs, log2_c, 2 * digits)
    if not Fraction(*to_rational(residual_2d._mpf_)) < Fraction(1, 10 ** (2 * digits - 10)):
        return None
    return Relation(
        q=q,
        digits=digits,
        coefficients=coeffs,
        log2_coefficient=log2_c,
        residual_at_d=_relation_residual(q, coeffs, log2_c, digits),
        residual_at_2d=residual_2d,
    )


def _relation_residual(q: int, coeffs: dict[int, int], log2_c: int, digits: int) -> mpf:
    """|sum c_a log(2 sin(a pi/q)) + c_2 log 2| at d digits, the sines computed afresh.

    The log 2 term and the sum are rounded to ``prec_bits(d)`` once each.
    """
    prec = prec_bits(digits)
    log2_term = mpf_mul(from_int(log2_c), mpf_ln2(prec, round_nearest), prec, round_nearest)
    return mp.make_mpf(mpf_abs(mpf_add(log_sine_sum(q, coeffs.items(), digits)._mpf_, log2_term, prec, round_nearest)))


def find_integer_relation(
    basis: LogSineBasis, max_coeff: int, digits: int
) -> Relation | None:
    """``find_relation_for_modulus`` for the basis's modulus and extension.

    The basis must carry at least ``digits`` digits; its values are not
    read.
    """
    if basis.digits < digits:
        raise PrecisionError(
            f"basis carries {basis.digits} digits but detection wants {digits}"
        )
    return find_relation_for_modulus(basis.q, max_coeff, digits, basis.extended is not None)


# ---------------------------------------------------------------------------
# Witness construction

def ramachandra_admissible(q: int) -> tuple[int, int] | None:
    """Smallest pair (p1, p2) of odd prime divisors of q with p2 = 1 mod p1,
    restricted to p1 = 1 (mod 4) so the quadratic character mod p1 is even.
    """
    require_int(q, 3, "admissibility needs q")
    odd_primes = [p for p, _ in factorize(q) if p != 2]
    for p1 in odd_primes:
        if p1 % 4 != 1:
            continue
        for p2 in odd_primes:
            if p2 != p1 and p2 % p1 == 1:
                return (p1, p2)
    return None


@dataclass(frozen=True)
class WitnessResult:
    q: int
    p1: int
    p2: int
    chi: Character
    f: PeriodicFunction
    residual: mpf
    digits: int

    def to_json_dict(self) -> dict:
        return {
            "q": self.q,
            "p1": self.p1,
            "p2": self.p2,
            "half_sum": character_half_sum(self.chi),
            "f": self.f.to_json_dict(),
            "residual": nstr(self.residual, 8),
            "digits": self.digits,
        }


def build_witness(q: int, c: Fraction | int, digits: int) -> WitnessResult:
    """Non-constant even Dirichlet-type f with numerically vanishing L'(0, f).

    Takes the quadratic character mod p1, lifts it to q, and sets
    f = chi - 1 + c on the units, c read as ``from_character`` reads it.
    Before returning, the construction asserts the exact half-range
    character sum equals -1 (the value the vanishing derivation relies
    on) and evaluates |L'(0, f)| at the requested precision; the caller
    decides what residual to accept.
    """
    pair = ramachandra_admissible(q)
    if pair is None:
        raise NotAdmissibleError(
            f"q = {q} has no odd prime pair (p1, p2) with p1 = 1 (mod 4) and p2 = 1 (mod p1)"
        )
    p1, p2 = pair
    chi = lift_character(quadratic_character(p1), q)
    half = character_half_sum(chi)
    if half != -1:
        raise HalfSumMismatchError(
            f"half-range sum of the lifted character mod {q} is {half}, expected -1; "
            "the witness construction does not apply"
        )
    f = from_character(chi, c)
    residual = mp.make_mpf(mpf_abs(l_deriv0_even(f, digits)._mpf_))
    return WitnessResult(q=q, p1=p1, p2=p2, chi=chi, f=f, residual=residual, digits=digits)
