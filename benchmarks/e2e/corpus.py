"""Deterministic corpus, request generator and numpy oracle for bench_e2e.

Everything here is a pure function of ``--seed`` (and the workload's fixed
sizes): the same seed gives byte-identical documents, codes and request
lists.  The program under test only ever receives the generated inputs; the
oracle answers the same requests from the generator's own arrays —
filter, then exact linear Hamming scan, ties by insertion order.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from datetime import date, timedelta

import numpy as np

from repro.bigearthnet.clc import get_nomenclature
from repro.bigearthnet.countries import COUNTRIES
from repro.bigearthnet.labels import LabelCharCodec
from repro.bigearthnet.seasons import season_of

LABELS: tuple[str, ...] = get_nomenclature().names
DAY0 = date(2017, 6, 1)
SPAN_DAYS = 365            # 2017-06-01 .. 2018-05-31
CODE_CENTRES = 256
BIT_FLIP = 0.03
KM_PER_DEG = 111.32
READ_CLASSES = ("search", "similar", "radius", "filtered", "batch")
# search 25 / similar 30 / radius 15 / filtered 20 / batch 10 %
READ_SHARES = (("search", 0.25), ("similar", 0.30), ("radius", 0.15),
               ("filtered", 0.20), ("batch", 0.10))
BATCH_NAMES = 16
K = 10
RADIUS = 2
SEARCH_LIMIT = 10


def _iso_day(day: int) -> str:
    return (DAY0 + timedelta(days=int(day))).isoformat()


@dataclass
class Corpus:
    """Row-aligned synthetic archive: row ``i`` is insertion position ``i``."""

    names: list[str]
    codes: np.ndarray        # (N, 1) uint64 packed 64-bit codes
    west: np.ndarray
    south: np.ndarray
    east: np.ndarray
    north: np.ndarray
    day: np.ndarray          # days since DAY0
    second: np.ndarray       # second of the acquisition day
    label_bits: np.ndarray   # uint64 bitmask over LABELS
    country: np.ndarray      # index into COUNTRIES
    has_s1: np.ndarray

    def __len__(self) -> int:
        return len(self.names)

    def documents(self, start: int = 0, stop: "int | None" = None) -> list[dict]:
        """Metadata documents (``metadata_document`` shape) for a row range."""
        codec = LabelCharCodec()
        stop = len(self) if stop is None else stop
        docs = []
        for i in range(start, stop):
            bits = int(self.label_bits[i])
            labels = [LABELS[b] for b in range(len(LABELS)) if bits >> b & 1]
            day = DAY0 + timedelta(days=int(self.day[i]))
            second = int(self.second[i])
            docs.append({
                "name": self.names[i],
                "location": {"bbox": [float(self.west[i]), float(self.south[i]),
                                      float(self.east[i]), float(self.north[i])]},
                "properties": {
                    "labels": labels,
                    "label_chars": codec.encode(labels),
                    "num_labels": len(labels),
                    "season": season_of(day),
                    "country": COUNTRIES[int(self.country[i])].name,
                    "satellites": ["S2", "S1"] if self.has_s1[i] else ["S2"],
                    "acquisition_date": (
                        f"{day.isoformat()}T{second // 3600:02d}:"
                        f"{second // 60 % 60:02d}:{second % 60:02d}"),
                },
            })
        return docs

    def part(self, start: int, stop: int) -> "Corpus":
        """Rows ``start:stop`` as their own corpus (one federation node)."""
        return Corpus(self.names[start:stop], *(
            getattr(self, f.name)[start:stop]
            for f in dataclasses.fields(self)[1:]))


def generate_corpus(seed: int, n: int) -> Corpus:
    """``n`` synthetic patches: metadata columns plus clustered 64-bit codes."""
    rng = np.random.default_rng([seed, 0xC0])
    weights = np.array([c.sampling_weight for c in COUNTRIES])
    country = rng.choice(len(COUNTRIES), size=n, p=weights / weights.sum())
    boxes = np.array([c.bbox.as_tuple() for c in COUNTRIES])[country]
    lon = boxes[:, 0] + rng.random(n) * (boxes[:, 2] - boxes[:, 0])
    lat = boxes[:, 1] + rng.random(n) * (boxes[:, 3] - boxes[:, 1])
    half_h = 0.6 / KM_PER_DEG
    half_w = 0.6 / (KM_PER_DEG * np.cos(np.radians(lat)))
    # 1-4 distinct CLC labels per patch.
    picks = np.argsort(rng.random((n, len(LABELS))), axis=1)[:, :4]
    counts = rng.integers(1, 5, size=n)
    keep = np.arange(4)[None, :] < counts[:, None]
    label_bits = np.bitwise_or.reduce(
        np.where(keep, np.uint64(1) << picks.astype(np.uint64), np.uint64(0)),
        axis=1)
    centres = rng.integers(0, 2 ** 64, size=CODE_CENTRES, dtype=np.uint64)
    flips = np.packbits(rng.random((n, 64)) < BIT_FLIP, axis=1,
                        bitorder="little").view(np.uint64)
    codes = centres[rng.integers(0, CODE_CENTRES, size=n)][:, None] ^ flips
    return Corpus(
        names=[f"syn{i:06d}" for i in range(n)],
        codes=np.ascontiguousarray(codes),
        west=lon - half_w, south=np.full(n, -half_h) + lat,
        east=lon + half_w, north=np.full(n, half_h) + lat,
        day=rng.integers(0, SPAN_DAYS, size=n),
        second=36000 + rng.integers(0, 3600, size=n),
        label_bits=label_bits, country=country,
        has_s1=rng.random(n) < 0.8)


# --------------------------------------------------------------------- #
# Requests
# --------------------------------------------------------------------- #

def _latin_hypercube(rng: np.random.Generator, n: int, dims: int) -> np.ndarray:
    """``(n, dims)`` uniforms, each column one jittered draw per 1/n stratum.

    Request cost depends on where and how large the AOI is; stratifying
    those draws keeps the cost distribution of a class — and so its
    percentiles — nearly the same from seed to seed, where independent
    draws of ~100 requests would move a p90 by several percent.
    """
    strata = rng.permuted(np.tile(np.arange(n), (dims, 1)), axis=1).T
    return (strata + rng.random((n, dims))) / max(n, 1)


_COUNTRY_CDF = np.cumsum([c.sampling_weight for c in COUNTRIES])
_COUNTRY_CDF = _COUNTRY_CDF / _COUNTRY_CDF[-1]


def _aoi_filters(rng: np.random.Generator, n: int) -> list[dict]:
    """``n`` STAC-flavoured AOI + date-range (+ optional labels) queries:
    a rectangle 1-3 degrees wide and half as tall (about square on the
    ground at these latitudes) centred in a country box, 30-90 days."""
    specs = []
    for u in _latin_hypercube(rng, n, 7):
        box = COUNTRIES[int(np.searchsorted(_COUNTRY_CDF, u[0], "right"))].bbox
        lon = box.west + u[1] * (box.east - box.west)
        lat = box.south + u[2] * (box.north - box.south)
        width = 1 + 2 * u[3]
        height = width / 2
        length = 30 + int(61 * u[4])
        first = int(u[5] * (SPAN_DAYS - length))
        spec = {
            "shape": {"type": "rectangle",
                      "west": round(lon - width / 2, 4),
                      "south": round(lat - height / 2, 4),
                      "east": round(lon + width / 2, 4),
                      "north": round(lat + height / 2, 4)},
            "date_from": _iso_day(first),
            "date_to": _iso_day(first + length),
        }
        if u[6] < 0.3:
            chosen = rng.choice(len(LABELS), size=2, replace=False)
            spec["labels"] = [LABELS[int(c)] for c in chosen]
            spec["label_operator"] = "some"
        specs.append(spec)
    return specs


def _class_counts(reads: int) -> dict[str, int]:
    counts = {kind: int(round(reads * share)) for kind, share in READ_SHARES}
    counts["similar"] += reads - sum(counts.values())
    return counts


HOT_REPEATS = 4


def generate_reads(seed: int, ids: list[str], reads: int, *,
                   hot_fraction: float = 0.0) -> list[tuple[str, dict]]:
    """``reads`` read requests in issue order, shuffled across classes.

    ``ids`` names the corpus rows as the API does (namespaced under
    federation).  With ``hot_fraction == 0`` every name and AOI is drawn
    once (all-unique: nothing a cache could reuse).  Otherwise that share
    of each class is drawn, with replacement, from a fixed pool of complete
    hot requests, so a repeat is an exact cache-key match.  The pool is
    sized for ``HOT_REPEATS`` draws per hot request: the hit share of every
    class then sits near ``hot_fraction * (1 - 1/HOT_REPEATS)``, away from
    both the median and the 90th percentile.
    """
    rng = np.random.default_rng([seed, 0xA1])
    counts = _class_counts(reads)
    rows = rng.permutation(len(ids))
    fresh_names = iter(ids[int(row)] for row in rows)

    def name() -> str:
        try:
            return next(fresh_names)
        except StopIteration:
            raise ValueError(f"corpus of {len(ids)} is too small for "
                             f"{reads} unique-name reads") from None

    def make(kind: str, specs) -> dict:
        if kind == "search":
            return {**next(specs), "limit": SEARCH_LIMIT}
        if kind == "similar":
            return {"name": name(), "k": K}
        if kind == "radius":
            return {"name": name(), "radius": RADIUS}
        if kind == "filtered":
            return {"name": name(), "k": K, "filter": next(specs)}
        return {"names": [name() for _ in range(BATCH_NAMES)], "k": K}

    requests: list[tuple[str, dict]] = []
    for kind, _ in READ_SHARES:
        is_hot = rng.random(counts[kind]) < hot_fraction
        pool_size = (max(1, round(counts[kind] * hot_fraction / HOT_REPEATS))
                     if hot_fraction else 0)
        with_aoi = kind in ("search", "filtered")
        pool_specs = iter(_aoi_filters(rng, pool_size if with_aoi else 0))
        pool = [make(kind, pool_specs) for _ in range(pool_size)]
        specs = iter(_aoi_filters(
            rng, int((~is_hot).sum()) if with_aoi else 0))
        for hot in is_hot:
            requests.append((kind, pool[int(rng.integers(0, pool_size))]
                             if hot else make(kind, specs)))
    order = rng.permutation(len(requests))
    return [requests[int(i)] for i in order]


def request_list_bytes(requests: list[tuple[str, dict]]) -> bytes:
    """Canonical serialisation (the same-seed → byte-identical check)."""
    return json.dumps(requests, sort_keys=True).encode()


# --------------------------------------------------------------------- #
# Oracle: filter, then exact linear Hamming scan, ties by insertion order
# --------------------------------------------------------------------- #

class Oracle:
    """Answers read requests from the generator's own arrays."""

    def __init__(self, corpus: Corpus, *, id_of=None) -> None:
        self.corpus = corpus
        self.codes = corpus.codes[:, 0]
        # Result ids as the program reports them (namespaced under
        # federation); requests name patches by the same ids.
        self.ids = ([id_of(i) for i in range(len(corpus))] if id_of
                    else list(corpus.names))
        self.row_of = {name: i for i, name in enumerate(self.ids)}

    def mask(self, spec: dict) -> np.ndarray:
        c = self.corpus
        shape = spec["shape"]
        mask = ~((c.west > shape["east"]) | (c.east < shape["west"])
                 | (c.south > shape["north"]) | (c.north < shape["south"]))
        first = (date.fromisoformat(spec["date_from"]) - DAY0).days
        last = (date.fromisoformat(spec["date_to"]) - DAY0).days
        mask &= (c.day >= first) & (c.day <= last)
        if "labels" in spec:
            wanted = np.uint64(sum(1 << LABELS.index(label)
                                   for label in spec["labels"]))
            mask &= (c.label_bits & wanted) != 0
        return mask

    def search(self, spec: dict) -> dict:
        rows = np.flatnonzero(self.mask(spec))
        return {"total_matches": int(rows.size),
                "names": [self.ids[int(r)] for r in rows[:spec["limit"]]]}

    def neighbours(self, name: str, *, k: "int | None" = None,
                   radius: "int | None" = None,
                   spec: "dict | None" = None) -> list[dict]:
        query = self.codes[self.row_of[name]]
        distances = np.bitwise_count(self.codes ^ query).astype(np.int64)
        allowed = (self.mask(spec) if spec is not None
                   else np.ones(len(self.codes), dtype=bool))
        # The query image matches itself at distance 0 and is dropped.
        allowed[self.row_of[name]] = False
        if radius is not None:
            allowed &= distances <= radius
        rows = np.flatnonzero(allowed)
        rows = rows[np.argsort(distances[rows], kind="stable")]
        if k is not None:
            rows = rows[:k]
        return [{"name": self.ids[int(r)], "distance": int(distances[r])}
                for r in rows]

    def expected(self, kind: str, payload: dict):
        """The comparable part of the response to one read request."""
        if kind == "search":
            return self.search(payload)
        if kind == "batch":
            return [self.neighbours(name, k=payload["k"])
                    for name in payload["names"]]
        return self.neighbours(payload["name"], k=payload.get("k"),
                               radius=payload.get("radius"),
                               spec=payload.get("filter"))


def observed(kind: str, response: dict):
    """The part of an API response the oracle defines."""
    if kind == "search":
        return {"total_matches": response["total_matches"],
                "names": response["names"]}
    if kind == "batch":
        return [entry["results"] for entry in response["queries"]]
    return response["results"]
