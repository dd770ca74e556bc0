"""Exception types shared across the package."""


class CefgError(Exception):
    """Base class for all package errors."""


class GameFormatError(CefgError):
    """Raised by the parser for malformed game descriptions.

    Carries the error code plus a line/column position when one is known.
    """

    def __init__(self, code: str, message: str, line: int | None = None,
                 column: int | None = None):
        self.code = code
        self.line = line
        self.column = column
        where = f" (line {line}, column {column})" if line is not None else ""
        super().__init__(f"{code}: {message}{where}")


class GameValidationError(CefgError):
    """Raised when a parsed game description violates a model invariant.

    `violations` is a list of (code, message) pairs; every detectable
    violation is collected before raising.
    """

    def __init__(self, violations):
        self.violations = list(violations)
        lines = "; ".join(f"{code}: {msg}" for code, msg in self.violations)
        super().__init__(f"{len(self.violations)} violation(s): {lines}")

    def codes(self):
        return [code for code, _ in self.violations]


class OutputError(CefgError):
    """The output file could not be written."""


class InfeasibleCoalition(CefgError):
    """A coalition outside the declared feasible set was used."""


class ImperfectInformation(CefgError):
    """A perfect-information-only routine was given non-singleton info sets."""


class MixedEquilibriumUnsupported(CefgError):
    """No pure equilibrium exists and the contested layer is not two-player."""


class UntimeableLayer(CefgError):
    """A layer's information sets have no bottom-up order, because two of
    them each hold a node above a node of the other. RI has no rule for such
    a layer; `spne_in_subgame` solves the game."""


class TooLarge(CefgError):
    """Input exceeds the brute-force oracle's size envelope, a layer game has
    more pure profiles than `noncoop._MAX_LAYER_PROFILES` (the message names
    the layer root and the count), or the nested listing would hold more
    than `render._MAX_LISTING_CHARS` characters (the message names it)."""
