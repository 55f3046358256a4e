"""Exception hierarchy shared by all modules.

The CLI maps these onto exit codes: InputError -> 1 (usage/parse),
ValidationError -> 2, PreconditionError -> 3, NumericError -> 4.
"""


class FlagcurvError(Exception):
    """Base class for all package errors."""


class InputError(FlagcurvError):
    """Malformed input: dimension mismatch, bad index, unparsable config."""


class ValidationError(FlagcurvError):
    """A structural invariant of the data fails (e.g. metric not SPD)."""


class PreconditionError(FlagcurvError):
    """An operation was called on data that fails its preconditions."""


class FlagError(PreconditionError):
    """Degenerate flag: the two spanning vectors are linearly dependent."""


class NumericError(FlagcurvError):
    """A numerical computation failed (bad step size, singular solve)."""
