"""Shared fixtures and generators for the test suite."""

from __future__ import annotations

import importlib.util
import random
from fractions import Fraction
from math import gcd
from pathlib import Path

import pytest
from mpmath import mp

from lprime.numkernel import prec_bits
from lprime.periodic import PeriodicFunction

ORACLE_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "oracle.py"
_spec = importlib.util.spec_from_file_location("perfbench_oracle", ORACLE_PATH)
#: The benchmark's exact oracle, which never imports lprime: exact relation
#: ranks from characters, distribution relations and mpmath built-in values.
oracle = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(oracle)


@pytest.fixture(autouse=True)
def high_ambient_precision():
    """Test-side mpf arithmetic must not round below the tolerances under test.

    Library calls set their own working precision internally; this only
    governs arithmetic done inside the tests themselves (sums of returned
    values, conversion of Fractions, tolerance literals).
    """
    with mp.workprec(prec_bits(300)):
        yield


def random_even_dirichlet(q: int, rng: random.Random, max_abs: int = 5,
                          allow_zero: bool = True) -> PeriodicFunction:
    """Random even Dirichlet-type function mod q with small rational values."""
    values: dict[int, Fraction] = {}
    for a in range(1, q // 2 + 1):
        if gcd(a, q) != 1:
            continue
        num = rng.randint(-max_abs, max_abs)
        if num == 0 and not allow_zero:
            num = 1
        den = rng.choice((1, 1, 1, 2, 3))
        v = Fraction(num, den)
        if v:
            values[a] = v
            values[q - a] = v
    return PeriodicFunction(q=q, values=values)


@pytest.fixture
def rng() -> random.Random:
    return random.Random(20240811)


@pytest.fixture
def golden_f5() -> PeriodicFunction:
    """The quadratic-character pattern mod 5 whose L'(0, f) is log((1+sqrt 5)/2)."""
    return PeriodicFunction(q=5, values={1: 1, 2: -1, 3: -1, 4: 1})
