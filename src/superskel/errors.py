"""Exception types shared across the package."""


class SuperskelError(Exception):
    """Base class for all library errors."""


class RankMismatchError(SuperskelError):
    """Two Grassmann values from incompatible algebras were combined."""


class RankCapError(SuperskelError):
    """A Grassmann rank exceeded the configured cap (SUPERSKEL_MAX_RANK)."""


class DigitCapError(SuperskelError):
    """A number to print has more digits than the parser reads back
    (poly.MAX_LITERAL_DIGITS)."""


class NotInvertibleError(SuperskelError):
    """Inversion was requested for a value whose body part vanishes."""


class ParityError(SuperskelError):
    """A value violates a parity (even/odd) constraint."""


class SpaceMismatchError(SuperskelError):
    """Two values living over different superspaces were combined."""


class DomainError(SuperskelError):
    """A point lies outside a declared domain, or a declared denominator
    turned out to vanish there."""


class ParseError(SuperskelError):
    """Syntax or validation error in textual input, with position info."""

    def __init__(self, message, line=None, column=None):
        self.message = message
        self.line = line
        self.column = column
        where = ""
        if line is not None:
            where = f"line {line}"
            if column is not None:
                where += f", col {column}"
            where += ": "
        super().__init__(where + message)
