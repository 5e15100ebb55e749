"""Exception hierarchy shared by all modules, and the one integer check.

Two families matter to callers (and to the CLI exit-code mapping):
``ValidationError`` for rejected inputs, ``ComputationError`` for
evaluations that start but cannot finish (pole, lost convergence,
insufficient precision).

Every integer argument of the library, a period, a residue, a modulus,
an index or a digit count, must be an ``int`` and not a ``bool``
(``is_int``), so ``2.0``, ``Fraction(2)`` and ``True`` raise
``ValidationError`` as a value out of range does; ``require_int`` is that
check with a lower bound.
"""


class LPrimeError(Exception):
    """Base class for everything raised on purpose by this package."""


class ValidationError(LPrimeError, ValueError):
    """Input violates a documented precondition."""


class NotAdmissibleError(ValidationError):
    """Modulus has no odd prime pair (p1, p2) usable for a witness."""


class ComputationError(LPrimeError):
    """A numeric evaluation could not be completed."""


class PoleError(ComputationError):
    """Evaluation requested at the simple pole s = 1."""


class ConvergenceError(ComputationError):
    """Series tail refused to drop below the error target within the cap."""


class PrecisionError(ComputationError):
    """Working precision too low for the requested operation."""


class HalfSumMismatchError(ComputationError):
    """Lifted character half-sum differs from the expected value -1.

    Raised by witness construction instead of silently proceeding: a
    mismatch means either the character lift is wrong or the modulus
    does not behave as the construction requires.
    """


def is_int(value) -> bool:
    """An ``int`` and not a ``bool``: what the library takes as an integer."""
    return isinstance(value, int) and not isinstance(value, bool)


def require_int(value, least: int, what: str) -> None:
    """Raise ``ValidationError`` unless ``value`` is an integer (``is_int``) >= ``least``.

    The message is "<what> >= <least>, got <value!r>", and it says so when
    ``value`` is not an integer.  An exact ``int`` pays one type test.
    """
    if (type(value) is int or is_int(value)) and value >= least:
        return
    raise ValidationError(f"{what} >= {least}, got {value!r}" + ("" if is_int(value) else ", not an integer"))
