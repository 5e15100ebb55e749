"""Exact modular arithmetic: factorization, totient, multiplicative order,
primitive/semi-primitive root predicates, and real even Dirichlet characters.

Everything here is integer-exact and stateless.  Factorization is plain
trial division by 2 and the odd numbers up to the square root, and a
number is prime when it is its own factorization; no probabilistic
test is involved.  That is ample for desk-scale moduli (q well below
10**6).
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass
from math import gcd

from .errors import ValidationError, require_int


def factorize(n: int) -> list[tuple[int, int]]:
    """Prime factorization as (prime, exponent) pairs, primes increasing."""
    require_int(n, 1, "can only factor positive integers n")
    factors: list[tuple[int, int]] = []
    rest = n
    p = 2
    while p * p <= rest:
        e = 0
        while rest % p == 0:
            rest //= p
            e += 1
        if e:
            factors.append((p, e))
        p += 1 if p == 2 else 2
    if rest > 1:
        factors.append((rest, 1))
    return factors


def is_prime(n: int) -> bool:
    return n >= 2 and factorize(n) == [(n, 1)]


def is_prime_power(n: int) -> bool:
    return n >= 2 and len(factorize(n)) == 1


def euler_phi(n: int) -> int:
    """Euler totient from the factorization."""
    require_int(n, 1, "totient undefined unless n")
    phi = 1
    for p, e in factorize(n):
        phi *= (p - 1) * p ** (e - 1)
    return phi


def mult_order(a: int, m: int) -> int:
    """Least k >= 1 with a**k == 1 mod m.

    Starts from phi(m) and strips prime factors while the power stays 1.
    """
    return _order_and_phi(a, m)[0]


def _order_and_phi(a: int, m: int) -> tuple[int, int]:
    """(mult_order(a, m), euler_phi(m)), with phi(m) taken once."""
    require_int(m, 2, "modulus must be")
    if gcd(a, m) != 1:
        raise ValidationError(f"{a} is not a unit mod {m}")
    order = phi = euler_phi(m)
    for p, _ in factorize(order):
        while order % p == 0 and pow(a, order // p, m) == 1:
            order //= p
    return order, phi


class RootType(enum.Enum):
    PRIMITIVE = "Primitive"
    SEMI_PRIMITIVE = "SemiPrimitive"
    NEITHER = "Neither"


def root_type(g: int, m: int) -> RootType:
    """Classify g mod m: order phi(m) -> primitive, phi(m)/2 -> semi-primitive."""
    require_int(m, 3, "root classification needs modulus")
    order, phi = _order_and_phi(g, m)
    if order == phi:
        return RootType.PRIMITIVE
    if phi % 2 == 0 and order == phi // 2:
        return RootType.SEMI_PRIMITIVE
    return RootType.NEITHER


# ---------------------------------------------------------------------------
# Real even Dirichlet characters

@dataclass(frozen=True)
class Character:
    """Real character of conductor p1 viewed at a modulus q divisible by p1.

    ``values[r]`` is the character at residue r mod p1 (so values[0] = 0).
    Evaluation at n first checks gcd(n, modulus): the lift to modulus q
    vanishes on all non-units of q, not just on multiples of p1.
    """

    conductor: int
    modulus: int
    values: tuple[int, ...]

    def __post_init__(self):
        p = self.conductor
        if not is_prime(p) or p % 2 == 0:
            raise ValidationError(f"conductor must be an odd prime, got {p}")
        if self.modulus % p != 0:
            raise ValidationError(f"modulus {self.modulus} is not a multiple of the conductor {p}")
        if len(self.values) != p:
            raise ValidationError("value table must have one entry per residue mod the conductor")
        if self.values[0] != 0 or any(v not in (-1, 0, 1) for v in self.values):
            raise ValidationError("character values must be in {-1, 0, +1} with 0 exactly at 0")
        if all(self.values[a] != -1 for a in range(1, p)):
            raise ValidationError("character is principal (never takes the value -1)")
        for a in range(1, p):
            for b in range(a, p):
                if self.values[a * b % p] != self.values[a] * self.values[b]:
                    raise ValidationError("character table is not completely multiplicative")

    def __call__(self, n: int) -> int:
        if gcd(n, self.modulus) != 1:
            return 0
        return self.values[n % self.conductor]

    @property
    def is_even(self) -> bool:
        return self.values[self.conductor - 1] == 1


def quadratic_character(p: int) -> Character:
    """Legendre-symbol character mod p, restricted to p == 1 (mod 4).

    The congruence makes chi(-1) = +1, i.e. the character is even; for
    p == 3 (mod 4) the quadratic character is odd and is rejected.
    """
    if not is_prime(p) or p == 2:
        raise ValidationError(f"conductor must be an odd prime, got {p}")
    if p % 4 != 1:
        raise ValidationError(
            f"quadratic character mod {p} is odd (p = 3 mod 4); an even character is required"
        )
    values = [0] * p
    for a in range(1, p):
        values[a] = 1 if pow(a, (p - 1) // 2, p) == 1 else -1
    return Character(conductor=p, modulus=p, values=tuple(values))


def lift_character(chi: Character, q: int) -> Character:
    """View chi at modulus q: chi(s mod p1) on units of q, 0 elsewhere.

    Evenness is preserved, so the lift is constant on the residue pairs
    {a, q - a} and descends to the group of units folded by a <-> q - a.
    """
    if q % chi.conductor != 0:
        raise ValidationError(f"conductor {chi.conductor} does not divide {q}")
    return Character(conductor=chi.conductor, modulus=q, values=chi.values)


def character_half_sum(chi: Character) -> int:
    """Exact sum of chi(b) over 2 <= b <= q/2 with gcd(b, q) = 1."""
    q = chi.modulus
    require_int(q, 5, "half sum needs modulus")
    if not chi.is_even:
        raise ValidationError("half sum is only meaningful for even characters")
    return sum(chi(b) for b in range(2, q // 2 + 1))


# ---------------------------------------------------------------------------
# Multiplicative relations among the cyclotomic units 2 sin(a pi/q)

def unit_mask(q: int, top: int) -> bytearray:
    """Byte a is 1 when gcd(a, q) = 1 and 0 otherwise, for 0 <= a <= top; q >= 1.

    A sieve: the multiples of each prime factor of q are cleared, so no
    gcd is taken.  Byte 0 is 0, as gcd(0, q) = q, except at q = 1.
    """
    coprime = bytearray([1]) * (top + 1)
    coprime[0] = q == 1
    for p, _ in factorize(q):
        coprime[p::p] = bytes(len(range(p, top + 1, p)))
    return coprime


def half_units(q: int) -> list[int]:
    """The half support: residues 1 <= a <= q/2 coprime to q, ascending.

    The fixed column order of the log-sine formulas, the relations and
    the rank criterion, read from ``unit_mask``.
    """
    half = q // 2
    if half < 1:
        return []
    return list(itertools.compress(range(half + 1), unit_mask(q, half)))


def coset_relations(q: int) -> list[tuple[int, ...]]:
    """Supports of the 0/1 relations among log(2 sin(a pi/q)) over the half support.

    For each prime power p^e exactly dividing q with m = q/p^e > 1, the
    lifts b of a unit r mod m that are coprime to q satisfy
    prod (1 - zeta_q^b) = (1 - zeta_m^r) / (1 - zeta_m^(r/p)), so over the
    lifts of a coset of <p, -1> in (Z/m)^* the product telescopes to 1 in
    absolute value.  The half-support residues lying over one coset are
    therefore a relation with every coefficient 1.  Lifted to (Z/q)^*, the
    cosets are those of the subgroup generated by -1, p and the units that
    are 1 mod m; the even characters trivial on it are those whose
    log-sine sum vanishes through the Euler factor at p.  So the relations
    span the whole rational relation space.  A prime power has none.

    Order: fewest residues first, then supports without a = 1, then the
    sorted residue tuples.  Each support appears once.  Building them costs
    O(q); the classifier and the vanishing verdict need only their count,
    which ``relation_count`` reads from the generators.
    """
    require_int(q, 2, "relations need q")
    half = half_units(q)
    supports = set()
    for p, e in factorize(q):
        m = q // p ** e
        if m == 1:
            continue
        coset = {}  # unit mod m -> least unit of its coset of <p, -1>
        for r in range(1, m):
            if r in coset or gcd(r, m) != 1:
                continue
            x = r
            while x not in coset:
                coset[x] = coset[m - x] = r
                x = x * p % m
        blocks: dict[int, list[int]] = {}
        for a in half:
            blocks.setdefault(coset[a % m], []).append(a)
        supports.update(tuple(b) for b in blocks.values())
    return sorted(supports, key=lambda s: (len(s), 1 in s, s))


def relation_count(q: int) -> int:
    """How many coset relations q has: 0, 1, or 2 for two or more.

    Equal to ``min(len(coset_relations(q)), 2)``, without building the
    supports.  For each p^e exactly dividing q with m = q/p^e > 1, the
    cosets of <p, -1> in (Z/m)^* split the half support into blocks, none
    of them empty: every unit mod m lifts to a unit of q, and -1 folds a
    onto q - a.  So q has none exactly when it is a prime power, and at
    most one, the all-ones relation, exactly when every such <p, -1> is
    all of (Z/m)^*.  The subgroup <p> has mult_order(p, m) elements and
    holds -1 exactly when p^(order/2) = -1 (mod m); <p, -1> is twice as
    large when it does not.  At q = 2 p^n this is the statement that 2
    and -1 generate (Z/p^n)^*.
    """
    require_int(q, 2, "relations need q")
    fact = factorize(q)
    if len(fact) == 1:
        return 0
    for p, e in fact:
        m = q // p ** e
        if m == 2:
            continue  # (Z/2)^* is trivial, and -1 = 1 there
        order, phi = _order_and_phi(p, m)
        minus_one_in = order % 2 == 0 and pow(p, order // 2, m) == m - 1
        if (order if minus_one_in else 2 * order) != phi:
            return 2
    return 1


def has_log2_relation(q: int) -> bool:
    """Whether log 2 takes part in the relations of the half-support log-sines of q.

    True exactly at q = 2^n with n >= 3.  Since |1 - zeta_q^k| equals
    2 sin(k pi/q), the product of the 2 sin(k pi/q) over the units k of q
    is the cyclotomic polynomial at 1: p at q = p^n and 1 at every other
    q.  At q = 2^n the half support takes one k of each pair {k, q - k},
    so its log-sines sum to (1/2) log 2, and from n = 3 on none of its
    residues is the excluded a = q/4 (at q = 4 the single residue is
    2 sin(pi/4) = 2^(1/2) itself).  At any other q no product of rational
    powers of the 2 sin(a pi/q) is a power of 2: with two distinct primes
    in q they are absolute values of units of Z[zeta_q], and at an odd
    prime power they generate only powers of the prime above p.
    """
    return q >= 8 and q & (q - 1) == 0
