"""Version management: snapshot assignment, publication, branching.

The version manager is "the key actor of the system" (Section 3.1): it
registers update requests, assigns snapshot version numbers, and eventually
publishes the updates, guaranteeing total ordering and atomicity.  It also
supplies writers with the information needed to compute border nodes without
waiting for concurrent writers (Section 4.2).
"""

from .records import (
    BlobRecord,
    CompletionNotice,
    InFlightUpdate,
    RecencyLease,
    RegisterRequest,
    UpdateTicket,
    resolve_owner,
)
from .version_manager import PublishListener, VersionManager, VMStats

__all__ = [
    "BlobRecord",
    "CompletionNotice",
    "InFlightUpdate",
    "PublishListener",
    "RecencyLease",
    "RegisterRequest",
    "UpdateTicket",
    "resolve_owner",
    "VersionManager",
    "VMStats",
]
