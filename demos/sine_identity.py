"""The coprime sine product identity, watched numerically.

For any q with at least two distinct prime factors,

    2^phi(q) * prod_{1 <= k <= q-1, (k,q)=1} sin(k pi / q) = 1,

while for a prime power q = p^n the same product equals p (it is the
cyclotomic polynomial of q evaluated at 1).  ``sine_identity_residual``
computes literally the log of that product: twice one log of the product
over k <= q/2, so composite q sit at the rounding floor (often exactly 0)
and prime powers sit at log p.

This identity is also why every non-prime-power modulus carries at least
one integer relation among its half-support log-sines: the all-ones
vector.  Relation detection confirms that below.
"""

from mpmath import mp, nstr

from lprime import find_relation_for_modulus, sine_identity_residual

DIGITS = 50

print(f"{'q':>4}  {'sum of log(2 sin(k pi/q))':>30}")
for q in (3, 4, 9, 25, 27, 12, 15, 21, 45, 155):
    r = sine_identity_residual(q, DIGITS)
    print(f"{q:>4}  {nstr(r, 12):>30}")

print("\nprime powers land on log p:")
for q, p in ((9, 3), (25, 5), (27, 3)):
    with mp.workprec(300):
        diff = abs(sine_identity_residual(q, DIGITS) - mp.log(p))
    print(f"  q={q}: |residual - log {p}| = {nstr(diff, 5)}")

print("\nthe all-ones relation rediscovered for q = 21:")
rel = find_relation_for_modulus(21, max_coeff=10, digits=60)
print(f"  coefficients: {dict(sorted(rel.coefficients.items()))}")
print(f"  residual at 120 digits: {nstr(rel.residual_at_2d, 8)}")
