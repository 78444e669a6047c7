"""Exception types shared across the package."""


class WlabError(Exception):
    """Base class for all package errors."""


class NotInvertible(WlabError):
    """A value shares a factor with the modulus, so it has no inverse.
    Takes only a message, which names the value."""


class InternalInconsistency(WlabError):
    """Two independent computations of the same quantity disagree (a bug)."""


class CapExceeded(WlabError):
    """Requested index beyond the exact-computation cap."""


class IndexDivisible(WlabError):
    """Bernoulli index is 0 mod (p-1); the index-reduction congruence does not apply."""


class KummerInapplicable(WlabError):
    """Requested Bernoulli residue is not p-integral or outside the method's reach."""


class InvalidInput(WlabError):
    """Operation preconditions violated."""


class UnknownCheckName(WlabError):
    """Check name not present in the registry."""


class CheckpointCorrupt(WlabError):
    """Checkpoint file is unreadable or fails schema validation."""


class TaskMismatch(WlabError):
    """Checkpoint belongs to a different scan."""
