"""Exception types carrying minimal witnesses for debuggability."""


class ValidationError(ValueError):
    """An algebraic axiom failed; ``witness`` holds the offending tuple."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class NotAGroupError(ValidationError):
    pass


class IdentityMismatchError(ValidationError):
    pass


class CompatibilityError(ValidationError):
    """The two products violate the skew-brace compatibility law."""


class MorphismError(ValidationError):
    pass


class NormalityError(ValueError):
    """An operation required a normal subbrace and did not get one."""


class CrossCheckError(AssertionError):
    """Two independent characterizations that must agree disagreed."""


class BraceFileError(ValueError):
    """A brace or map file failed to parse; message carries diagnostics."""
