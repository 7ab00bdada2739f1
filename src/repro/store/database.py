"""A named set of collections — the MongoDB-server stand-in.

EarthQube's data tier holds exactly four collections (paper, Section 3.2):
``metadata``, ``image_data``, ``rendered_images``, and ``feedback``.
:func:`Database.earthqube_schema` creates them: the metadata and image
collections are keyed by patch name (the "automatically indexed" primary
key), and the metadata collection — whatever creates it: the schema, a
snapshot restore — keeps the query panel's filter columns
(:class:`~repro.store.columns.MetadataColumns`, which stand in for the
paper's 2D index on ``location`` and cover the other filtered fields too).
"""

from __future__ import annotations

from typing import Iterator

from ..errors import CollectionNotFoundError, StoreError
from .collection import Collection
from .columns import MetadataColumns

METADATA = "metadata"
IMAGE_DATA = "image_data"
RENDERED_IMAGES = "rendered_images"
FEEDBACK = "feedback"


class Database:
    """A collection namespace with create/get/drop semantics."""

    def __init__(self, name: str = "earthqube") -> None:
        self.name = name
        self._collections: dict[str, Collection] = {}

    def create_collection(self, name: str, *, primary_key: "str | None" = None) -> Collection:
        """Create and return a collection; fails if the name is taken."""
        if name in self._collections:
            raise StoreError(f"collection {name!r} already exists in database {self.name!r}")
        columns = MetadataColumns() if name == METADATA else None
        collection = Collection(name, primary_key=primary_key, columns=columns)
        self._collections[name] = collection
        return collection

    def __getitem__(self, name: str) -> Collection:
        try:
            return self._collections[name]
        except KeyError:
            raise CollectionNotFoundError(
                f"no collection {name!r} in database {self.name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._collections

    def __iter__(self) -> Iterator[str]:
        return iter(self._collections)

    def collection_names(self) -> list[str]:
        """Sorted names of all collections."""
        return sorted(self._collections)

    def drop_collection(self, name: str) -> None:
        """Remove a collection and all its documents."""
        if name not in self._collections:
            raise CollectionNotFoundError(
                f"no collection {name!r} in database {self.name!r}")
        del self._collections[name]

    @classmethod
    def earthqube_schema(cls) -> "Database":
        """Create the four EarthQube collections."""
        db = cls("earthqube")
        db.create_collection(METADATA, primary_key="name")
        db.create_collection(IMAGE_DATA, primary_key="name")
        db.create_collection(RENDERED_IMAGES, primary_key="name")
        db.create_collection(FEEDBACK)
        return db
