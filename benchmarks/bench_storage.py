"""E7: storage cost — "high efficiency in both storage cost and search
retrieval speed".

Bytes per image for each representation level, and the packing throughput.
Expected shape: 128-bit codes are ~65x smaller than the float feature
vectors and ~4 orders of magnitude smaller than the pixels.
"""


from repro.index.codes import pack_bits, storage_bytes

from .conftest import print_table


def test_storage_accounting(benchmark, bench_archive, bench_features, bench_hasher):
    """Per-image storage of pixels vs. float features vs. binary codes."""
    n = len(bench_archive)
    pixel_bytes = bench_archive[0].storage_bytes()
    feature_bytes = bench_features[0].nbytes
    code_bytes_128 = storage_bytes(1, 128)
    code_bytes_64 = storage_bytes(1, 64)

    bits = bench_hasher.hash_bits(bench_features)
    packed = benchmark(lambda: pack_bits(bits))
    assert packed.shape[0] == n

    rows = [
        ["raw pixels (S2+S1)", pixel_bytes, f"{pixel_bytes / code_bytes_128:,.0f}x"],
        ["float features (130-d f64)", feature_bytes,
         f"{feature_bytes / code_bytes_128:.1f}x"],
        ["binary code (128 bits)", code_bytes_128, "1x"],
        ["binary code (64 bits)", code_bytes_64,
         f"{code_bytes_64 / code_bytes_128:.1f}x"],
    ]
    print_table("E7: storage per image (bytes)",
                ["representation", "bytes/image", "vs 128-bit code"], rows)
    print(f"whole archive ({n} images): "
          f"pixels {n * pixel_bytes / 1e6:.1f} MB, "
          f"features {n * feature_bytes / 1e3:.0f} KB, "
          f"128-bit codes {storage_bytes(n, 128) / 1e3:.0f} KB")

    assert code_bytes_128 * 60 < feature_bytes, \
        "codes must be >=60x smaller than float features"
    assert code_bytes_128 * 1000 < pixel_bytes, \
        "codes must be >=1000x smaller than pixels"


def test_inmemory_hash_table_footprint(benchmark, bench_system, bench_features):
    """The paper's in-memory name->code table: build cost for the archive."""
    names = bench_system.archive.names
    codes = bench_system.hasher.hash_packed(bench_features)

    def build_table():
        return {name: codes[i] for i, name in enumerate(names)}

    table = benchmark(build_table)
    assert len(table) == len(names)
