"""Construct a vanishing witness for q = 55, find its relation exactly, and
rediscover it blind.

The modulus 55 = 5 * 11 has 11 = 1 (mod 5), so the quadratic character
mod 5 lifts to an even character chi mod 55 whose half-range sum is -1.
The function f = chi - 1 on the units is non-constant, yet L'(0, f)
vanishes: the coefficients chi(s) - 1 pick out a multiplicative
dependence among the cyclotomic values 2 sin(s pi / 55).

The second part asks the relation finder, which takes the shortest coset
relation (here the class {2, 3} mod 5, where chi = -1) and certifies it
at twice the precision.  The third part is the cross-check: PSLQ on the
raw log-sine basis, with no knowledge of the character or the cosets.
"""

from mpmath import nstr

from lprime import build_witness, find_relation_for_modulus, half_support, log_sine_basis
from lprime.relations import pslq_relation

DIGITS = 100

wit = build_witness(55, 0, DIGITS)
print(f"q = {wit.q}, primes (p1, p2) = ({wit.p1}, {wit.p2})")
print(f"f on residues 1..10: {[str(wit.f(a)) for a in range(1, 11)]}")
print(f"|L'(0, f)| at {DIGITS} digits: {nstr(wit.residual, 8)}\n")

witness_support = sorted(a for a, v in half_support(wit.f) if v)
print(f"witness support (chi(s) = -1): {witness_support}\n")

rel = find_relation_for_modulus(55, max_coeff=4, digits=120)
print("exact coset relation over the 20 half-support log-sine values:")
print(f"  support: {sorted(rel.coefficients)}")
print(f"  residual re-checked at 240 digits: {nstr(rel.residual_at_2d, 8)}")
print(f"  equals the witness support: {sorted(rel.coefficients) == witness_support}\n")

basis = log_sine_basis(55, 120)
blind = pslq_relation(basis.all_values(), 4, 120)
blind_support = sorted(a for (a, _), c in zip(basis.entries, blind) if c)
print("cross-check, blind PSLQ at 120 digits:")
print(f"  support: {blind_support}")
print(f"  rediscovered the witness: {blind_support == witness_support}")
