"""Exception hierarchy shared by all modules.

Every error the kit raises deliberately derives from KitError, so callers
(and the CLI) can catch one type and map it to the `error` verdict.
"""

from __future__ import annotations


class KitError(Exception):
    """Base class for all errors raised by this package."""


class DivisionByZeroError(KitError, ZeroDivisionError):
    """Division by the zero polynomial or zero rational function."""


class DenominatorVanishesError(KitError):
    """A denominator evaluated to zero at the given assignment."""


class MissingVariableError(KitError):
    """An evaluation assignment does not cover every variable."""


class DegreeGuardError(KitError):
    """A fixed size limit would be passed: total degree or coefficient bits.
    The limits are 2**15 - 1 in total degree, the most a packed exponent
    field holds, and for a parsed function parse.MAX_DEGREE in total degree
    and parse.MAX_COEFF_BITS in coefficient bits."""


class ExactDivisionError(KitError):
    """Internal: polynomial division expected to be exact was not."""


class ContextMismatchError(KitError):
    """Operands belong to different variable registries."""


class WordLengthError(KitError):
    """A derivation would produce a jet symbol beyond the context's word length."""


class UnknownLetterError(KitError):
    """A derivation letter index lies outside the context's alphabet."""


class ArityError(KitError):
    """A relation was given the wrong number of points."""


class PreconditionError(KitError):
    """An operation's stated precondition does not hold for the inputs."""


class ParseError(KitError):
    """Source text does not conform to the expression grammar."""

    def __init__(self, message: str, position: int) -> None:
        super().__init__(f"{message} (at position {position})")
        self.position = position


class UsageError(KitError):
    """An argv that fits no command's flags.  Carries the command named ('' if
    none) and its option values read before the fault (None: not given)."""

    def __init__(self, message: str, command: str = "", read: dict | None = None) -> None:
        super().__init__(message)
        self.command, self.read = command, read or {}
