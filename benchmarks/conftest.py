"""Shared infrastructure for the figure-regeneration benches.

The expensive artifact is the full (benchmark x policy x depth x phase)
sweep; it is run once per session and cached on disk, then every figure
bench formats its slice of it.  Two environment knobs:

* ``REPRO_BENCH_SCALE`` -- workload run-length scale (default ``0.5``;
  use ``1.0`` for the full paper-shaped runs, smaller for smoke tests);
* ``REPRO_BENCH_PHASES`` -- comma-separated sampling phases (default
  ``0.0,0.33,0.66``; the paper used best-of-20, we default to best-of-3).

The per-cell cache lives next to this file (``.sweep_cache.cells/``)
and keys each cell by its content fingerprint, so changing either knob
reruns exactly the cells it changes; ``.sweep_cache.json`` is only
written, as the sweep's results file.
"""

from __future__ import annotations

import os

import pytest

from repro.experiments.config import SweepConfig
from repro.experiments.runner import load_or_run_sweep

CACHE_PATH = os.path.join(os.path.dirname(__file__), ".sweep_cache.json")


def bench_scale() -> float:
    return float(os.environ.get("REPRO_BENCH_SCALE", "0.5"))


def bench_phases() -> tuple:
    raw = os.environ.get("REPRO_BENCH_PHASES", "0.0,0.33,0.66")
    return tuple(float(part) for part in raw.split(","))


@pytest.fixture(scope="session")
def sweep():
    """The full sweep (cached across benches and sessions)."""
    config = SweepConfig(scale=bench_scale(), phases=bench_phases())
    return load_or_run_sweep(CACHE_PATH, config, verbose=False)
