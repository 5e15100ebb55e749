"""Classify a range of moduli and tabulate which vanishing regime applies.

The regime comes from the number of coset relations among the
half-support log-sines (``lprime.arith.coset_relations``), not from the
ladder's case label, which the report keeps as the paper's record:

no relation        L'(0, f) = 0  iff  f is the zero function
(the prime powers)
q = 6              L'(0, f) = 0  always (the only half-support log-sine is log 1)
one relation       L'(0, f) = 0  iff  f is constant on the units
(the all-ones one)
two or more        some non-constant f has L'(0, f) = 0; the verdict is
                   Unknown (see the witness_rediscovery demo)

indep(a>=2 basis) is true exactly when there is at most one relation.
The labels do not decide the regime: PeiFeng 84 and 693 and TwoPNPower
34 have two or more relations; TwoPNPower 10 and Uncovered 140 have one.
"""

from collections import Counter

from lprime import classify_modulus

counts = Counter()
print(f"{'q':>4}  {'case':<22} indep(a>=2 basis)  indep(full basis)")
for q in range(2, 200):
    cls = classify_modulus(q)
    counts[cls.case.value] += 1
    if q <= 60 or cls.label() in ("QSix", "PeiFeng(IV,2)", "Uncovered") and q < 110:
        print(f"{q:>4}  {cls.label():<22} {str(cls.independence_24):<18} {cls.independence_25}")

print("\ncase populations for q < 200:")
for label, count in counts.most_common():
    print(f"  {label:<18} {count}")

print("\nfull condition trace for q = 155:")
for check, result in classify_modulus(155).trace:
    print(f"  [{'x' if result else ' '}] {check}")
