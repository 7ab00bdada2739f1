"""The one value codec: WAL records and checkpoint documents.

``encode_payload`` / ``decode_payload`` encode both the WAL's record
payloads and the checkpoint's document image.  Three properties are
pinned here: every value the system stores round-trips exactly, through
JSON alone (checkpoint documents, arrays inline) and through a WAL record
(arrays in its blob section); and on every document the document store
holds, the codec writes the same JSON the former document-only codec
(inlined below as the oracle) wrote — so checkpoint images differ only
where a user dict uses the newly reserved ``__nd__`` key, which is now
escaped.
"""

from __future__ import annotations

import base64
import json

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.config import ArchiveConfig, EarthQubeConfig, MiLaNConfig, TrainConfig
from repro.earthqube import EarthQube
from repro.store.wal import (_decode_record, decode_payload, encode_payload,
                             encode_record)

from test_snapshot import RESERVED_KEY_DOCUMENTS

_ORACLE_RESERVED = frozenset({"__bytes__", "__esc__"})


def oracle_encode(value):
    """The document codec checkpoints used before there was one codec."""
    if isinstance(value, bytes):
        return {"__bytes__": base64.b64encode(value).decode("ascii")}
    if isinstance(value, dict):
        encoded = {k: oracle_encode(v) for k, v in value.items()}
        if _ORACLE_RESERVED & set(value):
            return {"__esc__": True, "value": encoded}
        return encoded
    if isinstance(value, (list, tuple)):
        return [oracle_encode(v) for v in value]
    return value


# --------------------------------------------------------------------- #
# Round trip
# --------------------------------------------------------------------- #

RESERVED = ["__bytes__", "__nd__", "__esc__", "value"]

ARRAY_DTYPES = st.sampled_from([np.dtype(name) for name in (
    "bool", "uint8", "int16", "int32", "int64", "uint64", "float32",
    "float64")])

arrays = hnp.arrays(
    ARRAY_DTYPES,
    hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=4))

numpy_scalars = st.one_of(
    st.integers(-2**63, 2**63 - 1).map(np.int64),
    st.integers(0, 2**32 - 1).map(np.uint32),
    st.floats(allow_nan=False).map(np.float64),
    st.floats(allow_nan=False, width=32).map(np.float32),
    st.booleans().map(np.bool_),
)

leaves = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(allow_nan=False),
    st.text(max_size=8), st.binary(max_size=16), arrays, numpy_scalars)

values = st.recursive(
    leaves,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.tuples(children, children),
        st.dictionaries(st.one_of(st.sampled_from(RESERVED),
                                  st.text(max_size=6)),
                        children, max_size=4)),
    max_leaves=16)


def assert_same(decoded, original) -> None:
    """``decoded`` is ``original`` up to the codec's documented widening:
    tuples come back as lists, numpy scalars as Python scalars; arrays keep
    dtype, shape and every byte."""
    if isinstance(original, np.ndarray):
        assert isinstance(decoded, np.ndarray)
        assert decoded.dtype == original.dtype
        assert decoded.shape == original.shape
        assert decoded.tobytes() == np.ascontiguousarray(original).tobytes()
    elif isinstance(original, np.generic):
        assert type(decoded) is type(original.item())
        assert decoded == original.item()
    elif isinstance(original, dict):
        assert isinstance(decoded, dict) and list(decoded) == list(original)
        for key, value in original.items():
            assert_same(decoded[key], value)
    elif isinstance(original, (list, tuple)):
        assert isinstance(decoded, list) and len(decoded) == len(original)
        for got, want in zip(decoded, original):
            assert_same(got, want)
    else:
        assert type(decoded) is type(original)
        assert decoded == original


@settings(max_examples=300, deadline=None)
@given(values)
def test_every_value_survives_json(value):
    text = json.dumps(encode_payload(value))
    assert_same(decode_payload(json.loads(text)), value)


@settings(max_examples=300, deadline=None)
@given(values)
def test_every_value_survives_a_wal_record(value):
    seq, op, decoded = _decode_record(encode_record(7, "op", value))
    assert (seq, op) == (7, "op")
    assert_same(decoded, value)


def test_inline_and_blob_forms_differ_only_in_array_data():
    value = {"bands": [np.arange(6, dtype=np.float32).reshape(2, 3),
                       np.array(7, dtype=np.uint64)], "name": "p"}
    blobs = bytearray()
    inline, split = encode_payload(value), encode_payload(value, blobs)
    for inline_nd, split_nd, array in zip(inline["bands"], split["bands"],
                                          value["bands"]):
        inline_spec = dict(inline_nd["__nd__"])
        split_spec = dict(split_nd["__nd__"])
        offset, nbytes = split_spec.pop("blob")
        assert base64.b64decode(inline_spec.pop("data")) == \
            bytes(blobs[offset:offset + nbytes]) == array.tobytes()
        assert inline_spec == split_spec
    assert len(blobs) == 24 + 8
    assert decode_payload(json.loads(json.dumps(split)),
                          blobs=memoryview(bytes(blobs)))["name"] == "p"


@given(st.dictionaries(st.sampled_from(RESERVED), leaves, min_size=1))
def test_reserved_keys_are_escaped(value):
    """A user dict using any reserved key decodes as that dict."""
    encoded = encode_payload(value)
    if {"__bytes__", "__nd__", "__esc__"} & set(value):
        assert set(encoded) == {"__esc__", "value"}
    assert_same(decode_payload(json.loads(json.dumps(encoded))), value)


def test_arrays_false_reads_nd_as_a_plain_key():
    """Images older than format 3 did not reserve ``__nd__``."""
    legacy = {"__nd__": {"dtype": "<u8", "shape": [1], "data": "AAAAAAAAAAA="}}
    assert decode_payload(legacy, arrays=False) == legacy
    assert isinstance(decode_payload(legacy), np.ndarray)


# --------------------------------------------------------------------- #
# Same JSON as the former document codec
# --------------------------------------------------------------------- #

def test_same_json_as_the_document_codec_on_a_bootstrapped_store():
    system = EarthQube.bootstrap(EarthQubeConfig(
        archive=ArchiveConfig(num_patches=24, patch_size_10m=24,
                              patch_size_20m=12, patch_size_60m=4, seed=3),
        milan=MiLaNConfig(num_bits=32, hidden_sizes=(32,)),
        train=TrainConfig(epochs=1, batch_size=16, triplets_per_epoch=32),
    ), store_images=True)
    system.feedback_service.submit("great archive", category="comment")
    compared = 0
    for name in system.db.collection_names():
        documents = system.db[name].find().documents
        assert documents, name
        for document in documents:
            assert json.dumps(encode_payload(document)) == \
                json.dumps(oracle_encode(document))
            compared += 1
    assert compared == 3 * 24 + 1   # metadata, image data, renderings, feedback


def test_same_json_on_reserved_key_documents_except_nd():
    for document in RESERVED_KEY_DOCUMENTS:
        new, old = (json.dumps(codec(document))
                    for codec in (encode_payload, oracle_encode))
        if document["name"] == "d4":   # the one using __nd__
            assert new != old  # now escaped
            assert json.loads(new)["payload"] == {
                "__esc__": True, "value": document["payload"]}
        else:
            assert new == old
