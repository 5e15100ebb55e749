"""The smallest non-trivial special value: a period-5 sign pattern whose
L-derivative at 0 is the logarithm of the golden ratio.

Take f mod 5 with f(1) = f(4) = 1 and f(2) = f(3) = -1 (the quadratic
residue pattern).  Then

    L'(0, f) = -log 2 sin(pi/5) + log 2 sin(2 pi/5)
             = log ( sin 72 / sin 36 )
             = log ( (1 + sqrt 5) / 2 ).

The three evaluation routes (term-wise derivative of the Euler-Maclaurin
series, log-Gamma closed form over mpmath's log Gamma, half-support
log-sine sum) share precision helpers of lprime but no algorithm, and
agree to the working precision.
"""

from mpmath import mp, nstr

from lprime import PeriodicFunction, l_deriv, l_deriv0_closed, l_deriv0_even

DIGITS = 60

f = PeriodicFunction(q=5, values={1: 1, 2: -1, 3: -1, 4: 1})

routes = {
    "hurwitz derivative": l_deriv(0, f, DIGITS),
    "log-gamma closed":   l_deriv0_closed(f, DIGITS),
    "log-sine sum":       l_deriv0_even(f, DIGITS),
}

print(f"f mod 5 = (1, -1, -1, 1, 0)\n")
for name, value in routes.items():
    print(f"  {name:>20}: {nstr(value, DIGITS - 5)}")

with mp.workprec(400):
    reference = mp.log((1 + mp.sqrt(5)) / 2)
print(f"  {'log((1+sqrt 5)/2)':>20}: {nstr(reference, DIGITS - 5)}")
