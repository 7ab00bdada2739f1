"""The paper's three demonstration scenarios (Section 4), on one system.

Scenarios 1 and 2 are the requests the EarthQube UI sends, made through
the JSON API (``EarthQubeAPI``); scenario 3 uploads pixels, which the API
does not take, so it calls the system's ``similar_to_new_image`` and
``auto_label`` directly (``benchmarks/bench_scenarios.py`` times the same
three flows):

1. label exploration: industrial areas adjacent to inland water bodies,
   and the label statistics view of what else occurs there;
2. spatial exploration + query-by-existing-example: a rectangle over the
   southwestern tip of Portugal, then the images most similar to one of
   its results, across all 10 countries;
3. query-by-new-example: an unlabeled upload, its neighbours, and the
   automatic labels their votes give it.

    python examples/demo_scenarios.py
"""

from datetime import datetime

from repro import ArchiveConfig, EarthQube, EarthQubeConfig, MiLaNConfig, TrainConfig
from repro.bigearthnet import Patch
from repro.bigearthnet.synthesis import PatchSynthesizer
from repro.earthqube import EarthQubeAPI
from repro.geo import BoundingBox

INDUSTRIAL = "Industrial or commercial units"
INLAND_WATERS = ["Water bodies", "Water courses"]
AGRICULTURE_NATURAL = ("Land principally occupied by agriculture, "
                       "with significant areas of natural vegetation")
SW_PORTUGAL = {"type": "rectangle",
               "west": -9.5, "south": 37.0, "east": -8.0, "north": 38.6}
UPLOADS = [("Coniferous forest", "Water bodies"),
           ("Sea and ocean", "Beaches, dunes, sands"),
           ("Non-irrigated arable land", "Pastures")]


def label_exploration(api: EarthQubeAPI) -> tuple[dict, dict]:
    """Scenario 1's requests: the label search, then its statistics view."""
    search = api.search({"labels": [INDUSTRIAL, *INLAND_WATERS],
                         "label_operator": "some", "limit": 50})
    return search, api.statistics({"names": search["names"]})


def spatial_query_by_example(api: EarthQubeAPI) -> tuple[dict, ...]:
    """Scenario 2's requests: the rectangle, similar images to its first
    result and their statistics, the same narrowed to images sharing a
    label with it, and similar images to every result at once."""
    search = api.search({"shape": SW_PORTUGAL})
    query = search["documents"][0]
    similar = api.similar({"name": query["name"], "k": 10})
    statistics = api.statistics({"names": [row["name"] for row in similar["results"]]})
    filtered = api.similar({"name": query["name"], "k": 10,
                            "filter": {"labels": query["properties"]["labels"]}})
    batch = api.similar_batch({"names": search["names"], "k": 10})
    return search, similar, statistics, filtered, batch


def upload(system: EarthQube, labels: tuple) -> Patch:
    """A freshly acquired, unindexed patch; its labels stay hidden."""
    s2, s1 = PatchSynthesizer(system.config.archive).synthesize(labels, "Summer", 999)
    return Patch(
        name="UPLOAD_0001", labels=labels, country="Portugal",
        bbox=BoundingBox(west=-8.9, south=38.5, east=-8.888, north=38.511),
        acquisition_date=datetime(2018, 6, 15, 10, 30), season="Summer",
        s2_bands=s2, s1_bands=s1)


def query_by_new_example(system: EarthQube, labels: tuple) -> tuple[list, list]:
    """Scenario 3: the upload's neighbours and the labels their vote gives it."""
    patch = upload(system, labels)
    return system.similar_to_new_image(patch, k=10).names, system.auto_label(patch, k=10)


def show_label_exploration(api: EarthQubeAPI) -> None:
    print("\n=== Scenario 1: label-based exploration ===")
    search, statistics = label_exploration(api)
    print(f"Selected labels (some): {[INDUSTRIAL, *INLAND_WATERS]}")
    print(f"Matches across the 10 countries: {search['total_matches']}")

    bars = statistics["bars"]
    print("\nLabel statistics (the bar chart of Figure 2-4):")
    for bar in bars[:10]:
        width = max(1, bar["count"] * 40 // max(1, bars[0]["count"]))
        print(f"  {bar['count']:4d} {bar['color']} {'#' * width:<40} {bar['label']}")

    agriculture = next((bar["count"] for bar in bars
                        if bar["label"] == AGRICULTURE_NATURAL), 0)
    print(f"\nThe paper's observation: '{AGRICULTURE_NATURAL[:40]}...' "
          f"co-occurs in {agriculture} of the retrieved images"
          + (" (possible irrigation from polluted waters)." if agriculture else "."))

    by_country: dict[str, int] = {}
    for document in search["documents"]:
        country = document["properties"]["country"]
        by_country[country] = by_country.get(country, 0) + 1
    print("\nReturned page by country:")
    for country, count in sorted(by_country.items(), key=lambda kv: -kv[1]):
        print(f"  {count:3d}  {country}")


def show_spatial_query_by_example(api: EarthQubeAPI, system: EarthQube) -> None:
    print("\n=== Scenario 2: spatial exploration + query-by-example ===")
    print(f"Geospatial query: rectangle ({SW_PORTUGAL['west']}, "
          f"{SW_PORTUGAL['south']}) .. ({SW_PORTUGAL['east']}, {SW_PORTUGAL['north']})")
    search, similar, _, filtered, _ = spatial_query_by_example(api)
    rendered = system.render_many(search["names"][:20])
    print(f"Images in SW Portugal: {search['total_matches']} "
          f"({len(rendered)} rendered on the map)")

    query = search["documents"][0]
    query_labels = query["properties"]["labels"]
    print(f"\nSelected query image: {query['name']}")
    print(f"  labels: {query_labels}")

    print(f"\nTop similar images (Hamming radius used: {similar['radius_used']}):")
    neighbours = system.documents_for([row["name"] for row in similar["results"]])
    for document in neighbours:
        props = document["properties"]
        shared = sorted(set(query_labels) & set(props["labels"]))
        print(f"  {document['name']}  {props['country']:<12} shared: {shared or '-'}")
    countries = sorted({document["properties"]["country"] for document in neighbours})
    print(f"\nNeighbour countries: {countries}")
    print("(CBIR reaches beyond the spatial query: similar content is found "
          "wherever it occurs.)")
    print(f"Filtered to neighbours sharing a query label: "
          f"{len(filtered['results'])} of 10")

    clusters = system.markers_for(search["documents"], zoom=6)
    print(f"\nMap view at zoom 6: {len(clusters)} marker cluster group(s)")
    for cluster in clusters[:5]:
        print(f"  ({cluster.lon:.2f}, {cluster.lat:.2f})  x{cluster.count}")


def show_query_by_new_example(api: EarthQubeAPI, system: EarthQube) -> None:
    print("\n=== Scenario 3: query-by-new-example + automatic labeling ===")
    for true_labels in UPLOADS:
        neighbours, predicted = query_by_new_example(system, true_labels)
        print(f"\nUploaded image with (hidden) labels: {list(true_labels)}")
        print(f"  neighbours found: {len(neighbours)}")
        print("  neighbour label votes:")
        for bar in api.statistics({"names": neighbours})["bars"][:6]:
            marker = " <-- true label" if bar["label"] in true_labels else ""
            print(f"    {bar['count']:3d}  {bar['label']}{marker}")
        print(f"  automatic annotation: {predicted}")
        recovered = set(predicted) & set(true_labels)
        print(f"  recovered {len(recovered)}/{len(true_labels)} true labels")


def main() -> None:
    system = EarthQube.bootstrap(EarthQubeConfig(
        archive=ArchiveConfig(num_patches=600, seed=33),
        milan=MiLaNConfig(num_bits=64, hidden_sizes=(128, 64)),
        train=TrainConfig(epochs=12, triplets_per_epoch=1024, batch_size=64),
    ), verbose=True)
    api = EarthQubeAPI(system)
    show_label_exploration(api)
    show_spatial_query_by_example(api, system)
    show_query_by_new_example(api, system)


if __name__ == "__main__":
    main()
