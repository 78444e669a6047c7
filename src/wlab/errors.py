"""Exception types shared across the package."""


class WlabError(Exception):
    """Base class for all package errors."""


class NotInvertible(WlabError):
    """Value shares a factor with the ring's prime.

    For batch operations ``index`` points at the first offending element.
    """

    def __init__(self, message: str, index: int | None = None):
        super().__init__(message)
        self.index = index


class InternalInconsistency(WlabError):
    """Two independent computations of the same quantity disagree (a bug)."""


class CapExceeded(WlabError):
    """Requested index beyond the exact-computation cap."""


class IndexDivisible(WlabError):
    """Bernoulli index is 0 mod (p-1); the index-reduction congruence does not apply."""


class KummerInapplicable(WlabError):
    """Requested Bernoulli residue is not p-integral or outside the method's reach."""


class PrecisionUnderflow(WlabError):
    """Extraction bookkeeping cannot deliver the requested precision."""


class InvalidInput(WlabError):
    """Operation preconditions violated."""


class UnknownCheckName(WlabError):
    """Check name not present in the registry."""


class CheckpointCorrupt(WlabError):
    """Checkpoint file is unreadable or fails schema validation."""


class TaskMismatch(WlabError):
    """Checkpoint belongs to a different search task."""
