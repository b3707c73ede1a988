"""Exception types shared across the package, and the bases of its
records.

Each exception class names one failure mode of the public operations, so
callers can catch precisely and the CLI can map failures onto stable exit
codes.
"""

from __future__ import annotations

_setattr = object.__setattr__


class Record:
    """Base of the records: a subclass lists its fields in ``__slots__`` and
    sets them in ``__init__`` through ``_set_fields``.  Two records are equal
    when they are of one class and their public fields (the slots not
    starting with ``_``), in slot order, are equal, and the repr is
    ``Name(field=value, ...)`` over those fields.  A plain Record is mutable,
    so it is unhashable."""

    __slots__ = ()

    def _set_fields(self, *values) -> None:
        """Set every slot, in slot order, to the value in that place."""
        for name, value in zip(self.__slots__, values):
            _setattr(self, name, value)

    def _public(self) -> list[str]:
        return [name for name in self.__slots__ if name[0] != "_"]

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._public()])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._public())
        return f"{self.__class__.__name__}({fields})"


class Frozen(Record):
    """Base of the immutable records: a Record that hashes by its public
    fields, and whose attributes refuse assignment and deletion with
    AttributeError.  Copies and unpickled records get their fields back
    through ``__setstate__``."""

    __slots__ = ()

    def __hash__(self):
        return hash(self._values())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __setstate__(self, state):
        for name, value in state[1].items():
            _setattr(self, name, value)


class FlagCodesError(Exception):
    """Base class for all package-specific errors."""


class ResourceBudgetExceeded(FlagCodesError):
    """A work budget ran out before the computation finished."""


# field construction and arithmetic

class NotPrime(FlagCodesError):
    """The requested characteristic is not a prime number."""


class ReducibleModulus(FlagCodesError):
    """The supplied extension modulus factors over the prime field."""


class DegreeMismatch(FlagCodesError):
    """A polynomial degree does not match what the operation requires."""


class FieldMismatch(FlagCodesError):
    """Operands belong to different fields."""


class DivisionByZero(FlagCodesError, ZeroDivisionError):
    """Division or inversion of the zero element."""


class NonMonic(FlagCodesError):
    """The operation requires a monic polynomial."""


class Reducible(FlagCodesError):
    """The operation requires an irreducible polynomial."""


class FactorizationTooLarge(ResourceBudgetExceeded):
    """Trial division could not certify a factorization within its bound."""


# matrices

class DimMismatch(FlagCodesError):
    """Matrix dimensions are incompatible with the operation."""


class SliceOutOfRange(FlagCodesError):
    """A 1-based row-slice request falls outside the matrix."""


class BlockDimMismatch(FlagCodesError):
    """Block assembly received cells with inconsistent dimensions."""


class Singular(FlagCodesError):
    """The matrix must be invertible."""


class OrderCapExceeded(ResourceBudgetExceeded):
    """Multiplicative-order search exceeded its iteration cap."""


# subspaces and codes

class ZeroRank(FlagCodesError):
    """A subspace needs a generator matrix of nonzero rank."""


class AmbientMismatch(FlagCodesError):
    """Subspaces live in different ambient spaces."""


class TooFewWords(FlagCodesError):
    """A subspace code needs at least two words for this operation."""


class NotConstantDim(FlagCodesError):
    """Subspace codes are constant dimension codes: words of two dimensions,
    or an empty code, which has no dimension, where one is needed."""


class HypothesisUnmet(FlagCodesError):
    """The closed-form bound does not apply to these parameters."""


# flags

class RankDeficientPrefix(FlagCodesError):
    """Some row prefix of the generator matrix has deficient rank."""


class TooFewRows(FlagCodesError):
    """The generator matrix has fewer rows than the type vector needs."""


class TypeMismatch(FlagCodesError):
    """Flags have different type vectors."""


class TooFewFlags(FlagCodesError):
    """A flag code needs at least two flags for this operation."""


class IndexOutOfRange(FlagCodesError):
    """A projected-code index falls outside the type vector."""


class NotASubsequence(FlagCodesError):
    """The requested type vector is not a subsequence of the code's type."""


class EllOutOfRange(FlagCodesError):
    """The split depth falls outside the admissible range."""


# constructions

class TheoremViolated(FlagCodesError):
    """A property the construction guarantees failed to hold; this signals
    an implementation bug or an input outside the guaranteed range."""


class CardinalityMismatch(TheoremViolated):
    """A constructed family has a different size than its closed form."""
