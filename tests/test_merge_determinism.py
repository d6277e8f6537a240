"""Merge determinism: shuffled inputs must produce byte-identical output.

Float addition is not associative, so any merge that folds weights in
dict-iteration order silently depends on insertion order -- two resumed
sweeps holding the same data in different orders would serialize
differently and break cache comparisons and golden diffs.  Every merge
in :mod:`repro.telemetry.aggregate` therefore folds in canonical sorted
order; these tests pin that by merging permuted inputs and requiring
identical bytes.
"""

import json
import random

from repro.telemetry.aggregate import (merge_cell_telemetry,
                                       merge_component_totals,
                                       merge_counters, merge_histograms)
from repro.telemetry.recorder import HistogramData, TelemetrySnapshot

#: Weights chosen so a different fold order flips low-order float bits:
#: (a + b) + c != a + (b + c) for these magnitudes.
WEIGHTS = [0.1, 0.2, 0.3, 1e16, 1.0, -1e16, 0.7, 1e-9]


def make_snapshot(index: int) -> TelemetrySnapshot:
    histogram = HistogramData()
    for value in WEIGHTS[: index + 2]:
        histogram.observe(abs(value) + 1.0)
    return TelemetrySnapshot(
        label=f"cell{index}",
        total_cycles=WEIGHTS[index % len(WEIGHTS)] + 100.0,
        counters={f"ctr{j}": WEIGHTS[(index + j) % len(WEIGHTS)]
                  for j in range(3)},
        histograms={"h": histogram})


def permutations_of_labelled_snapshots(count=5, orders=6):
    snapshots = {f"cell{i}": make_snapshot(i) for i in range(count)}
    labels = list(snapshots)
    for seed in range(orders):
        shuffled = list(labels)
        random.Random(seed).shuffle(shuffled)
        yield {label: snapshots[label] for label in shuffled}


class TestTelemetryMergeDeterminism:
    def test_counters_identical_across_input_orders(self):
        blobs = {json.dumps(merge_counters(ordering), sort_keys=False)
                 for ordering in permutations_of_labelled_snapshots()}
        assert len(blobs) == 1

    def test_counter_keys_emitted_sorted(self):
        for ordering in permutations_of_labelled_snapshots(orders=3):
            merged = merge_counters(ordering)
            assert list(merged) == sorted(merged)

    def test_component_totals_identical_across_input_orders(self):
        blobs = {json.dumps(merge_component_totals(ordering))
                 for ordering in permutations_of_labelled_snapshots()}
        assert len(blobs) == 1

    def test_histograms_identical_across_input_orders(self):
        blobs = set()
        for ordering in permutations_of_labelled_snapshots():
            merged = merge_histograms(ordering)
            blobs.add(json.dumps(
                {name: [h.count, h.total, h.minimum, h.maximum,
                        sorted(h.buckets.items())]
                 for name, h in merged.items()}, sort_keys=True))
        assert len(blobs) == 1

    def test_cell_maps_union_is_key_sorted(self):
        cells = {("jess", "fixed", d): make_snapshot(d) for d in (3, 1, 2)}
        later = {("db", "fixed", 1): make_snapshot(0),
                 ("jess", "fixed", 1): make_snapshot(4)}
        merged = merge_cell_telemetry(cells, None, later)
        assert list(merged) == sorted(merged)
        # Later maps win where cells overlap (the cell re-ran).
        assert merged[("jess", "fixed", 1)].label == "cell4"
