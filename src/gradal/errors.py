"""Exception taxonomy.

Every failure mode that a caller can act on gets its own class; anything
raised by this package is a GradalError, so CLI and tests can map errors
to exit codes without string matching.
"""


class GradalError(Exception):
    """Base class for all package errors."""


class InternalInvariantError(GradalError):
    """The package's own output failed its self-verification: a bug."""


class NotSurjectiveError(GradalError):
    """A homomorphism that had to be surjective is not."""


class NotEntireError(GradalError):
    """The ring has homogeneous zero divisors, so the construction is undefined."""


class TorsionKernelError(GradalError):
    """Coarsening a fraction ring by a map whose kernel has torsion."""


class NotASubgroupError(GradalError):
    """An element or map does not land in the required subgroup."""


class NotAHomomorphismError(GradalError):
    """A matrix does not define a homomorphism on the given groups."""


class ParentMismatchError(GradalError):
    """Two operands belong to different parents (group or ring)."""


class NotHomogeneousError(GradalError):
    """The element is not homogeneous where homogeneity is required."""


class ZeroElementError(GradalError):
    """The zero element was passed where a nonzero one is required."""


class IncompatibleRingsError(GradalError):
    """The two rings are not related by the required inclusion."""


class BadOrderError(GradalError):
    """A torsion order outside the supported range (2 <= n <= 256)."""


class NotSimpleBaseError(GradalError):
    """The construction needs a simple ring and this one is not."""


class HypothesisViolatedError(GradalError):
    """Structural hypotheses of a named construction fail on this input."""


class NotASectionError(GradalError):
    """The supplied map is not a section of the projection."""


class PreconditionViolatedError(GradalError):
    """Check inputs lie outside the statement's hypotheses."""


class UnknownCheckIdError(GradalError):
    """The harness was asked for a check id it does not know."""


class DslSyntaxError(GradalError):
    """Input text does not parse; carries line/column positions."""

    def __init__(self, message, line, col):
        super().__init__(f"{line}:{col}: {message}")
        self.line = line
        self.col = col


class DslTypeError(GradalError):
    """Parsed input is ill-typed; carries the offending spans."""

    def __init__(self, message, spans=()):
        at = " ".join(f"[{ln}:{c1}-{c2}]" for (ln, c1, c2) in spans)
        super().__init__(f"{message}{' at ' + at if at else ''}")
        self.spans = tuple(spans)
