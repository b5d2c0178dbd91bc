"""Exception hierarchy.

Two top-level families matter to callers.  InputError means the caller's
input or configuration was unusable (CLI exit status 1); its subclass
SizeLimit marks a size guard that tripped before the work, which the
verifier reports as a skipped check.  IdentityAlarm means a computation
contradicted a structural fact that holds for every valid input, so it
signals a bug somewhere upstream rather than a bad poset (CLI exit
status 2).  Each raise's message names what failed.
"""


class EnchainError(Exception):
    """Base class for every error raised by this package."""


class InputError(EnchainError):
    """Unusable input or configuration."""


class SizeLimit(InputError):
    """A size guard tripped before a computation was attempted."""


class IdentityAlarm(EnchainError):
    """A verified identity failed; treat as an implementation bug alarm."""
