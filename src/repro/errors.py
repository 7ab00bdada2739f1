"""Exception hierarchy for the repro package.

All errors raised by this library derive from :class:`ReproError`, so callers
can catch a single base class at API boundaries.  Subsystems raise the most
specific subclass that applies; error messages always name the offending
value so failures are diagnosable without a debugger.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by the repro package."""

    def __str__(self) -> str:
        # The message itself: the KeyError subclasses below would otherwise
        # render it as a repr, quotes and escapes included.
        return Exception.__str__(self)


class ValidationError(ReproError, ValueError):
    """A user-supplied value failed validation (bad query, bad config)."""


class GeoError(ValidationError):
    """Invalid geospatial input (coordinates out of range, degenerate shape)."""


class StoreError(ReproError):
    """Base class for document-store failures."""


class DuplicateKeyError(StoreError):
    """Insert violated a unique index (e.g. a duplicate primary key)."""


class DocumentNotFoundError(StoreError, KeyError):
    """A lookup by primary key found no document."""


class CollectionNotFoundError(StoreError, KeyError):
    """A database operation referenced a collection that does not exist."""


class QuerySyntaxError(StoreError, ValidationError):
    """A store query used an unknown operator or malformed operand."""


class IndexError_(StoreError):
    """An index definition or maintenance operation failed.

    Named with a trailing underscore to avoid shadowing the builtin
    :class:`IndexError`.
    """


class DurabilityError(StoreError):
    """Crash-safety machinery failure (WAL, snapshot, recovery)."""


class WALCorruptionError(DurabilityError):
    """A write-ahead log record failed its checksum *mid-log*.

    A torn final record is expected after a crash and silently dropped;
    corruption with valid data after it means the log was damaged at rest
    and replay must not guess — it stops with this error.
    """


class ArchiveError(ReproError):
    """Errors in synthetic archive construction or access."""


class UnknownLabelError(ArchiveError, KeyError):
    """A CLC label name (or code) is not part of the nomenclature."""


class UnknownPatchError(ArchiveError, KeyError):
    """A patch name does not exist in the archive."""


class ModelError(ReproError):
    """Errors in the neural network / hashing model layer."""


class ShapeError(ModelError, ValueError):
    """An array had an incompatible shape for the requested operation."""


class NotFittedError(ModelError, RuntimeError):
    """A model/transform was used before being trained or fitted."""


class TrainingError(ModelError):
    """Training failed (e.g. no valid triplets could be mined)."""


class SearchError(ReproError):
    """Errors in the retrieval/index layer."""


class EmptyIndexError(SearchError):
    """A search was issued against an index with no items."""


class CodecError(ReproError, ValueError):
    """Label<->character codec failure (unknown char, overflow)."""


class CartError(ReproError):
    """Download-cart constraint violations (e.g. page size over limit)."""
