"""The multi-instance fleet harness.

Spawns N simulated runtimes over the *same* program (different workload
seeds and sampling phases playing the role of per-machine load
variation), captures each instance's profile deltas at epoch boundaries
as the machine's event sink (its ``epoch`` event), and streams them into a
:class:`~repro.fleet.store.ShardedProfileStore`.

Instances fan out over a process pool with the same fault-tolerance
contract as the experiment sweep (:mod:`repro.experiments.runner`): an
instance whose worker crashes is retried once serially, a per-instance
timeout turns stragglers into structured :class:`InstanceFailure`
records, a broken pool strands its remaining instances onto the serial
path, and platforms without ``multiprocessing`` degrade to in-process
execution.

Because workers run to completion before the coordinator folds their
streams, the fold replays every instance's epochs in (epoch, instance)
order with a store-epoch advance between epoch groups -- the same
interleaving a live streaming service would see, but deterministic and
pool-friendly.

Delta capture deliberately round-trips trace weights through a
:class:`~repro.profiles.cct.CallingContextTree` (``add_trace`` then
``to_trace_weights``): the CCT projection is the fleet wire format, and
routing every published delta through it keeps the round-trip invariant
load-bearing rather than decorative.
"""

from __future__ import annotations

import dataclasses
import warnings
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.aos.runtime import AdaptiveRuntime, RunResult
from repro.fleet.store import (ShardedProfileStore, WireKey,
                               program_fingerprint, wire_key)
from repro.jvm.costs import DEFAULT_COSTS, CostModel
from repro.policies import make_policy
from repro.profiles.cct import CallingContextTree
from repro.profiles.trace import TraceKey
from repro.provenance.recorder import ProvenanceRecorder
from repro.workloads.generator import generate
from repro.workloads.spec import SPECS

#: Worker attempts per instance (pool attempt plus one serial retry).
MAX_INSTANCE_ATTEMPTS = 2

#: Seed stride between fleet instances.  Any odd-ish constant works; the
#: point is that every instance perturbs the generator differently while
#: the hot-path method/site ids (allocated before seeded randomness)
#: stay shared across the fleet.
SEED_STRIDE = 101


@dataclass(frozen=True)
class FleetConfig:
    """One fleet experiment: N instances of one benchmark."""

    benchmark: str = "jess"
    instances: int = 3
    scale: float = 0.1
    family: str = "fixed"
    depth: int = 2
    #: Publish a delta every this many organizer wakes.
    publish_every: int = 4
    #: Vary workload seeds across instances (heterogeneous fleet) or run
    #: every instance on the spec's own seed (homogeneous).
    heterogeneous: bool = True
    jobs: int = 0
    timeout: Optional[float] = None

    def instance_ids(self) -> List[str]:
        return [f"{self.benchmark}#{index}"
                for index in range(self.instances)]


@dataclass
class ProfileDelta:
    """One instance's profile delta for one epoch window."""

    epoch: int
    trace_weights: Dict[WireKey, float]
    edge_weights: Dict[WireKey, float]


@dataclass
class InstanceFailure:
    """One instance that produced no result, and how hard the harness
    tried."""

    instance_id: str
    error_type: str
    message: str
    attempts: int


@dataclass
class FleetOutcome:
    """Everything one fleet run produced."""

    config: FleetConfig
    fingerprint: str
    store: ShardedProfileStore
    results: Dict[str, RunResult] = field(default_factory=dict)
    #: instance id -> its captured epoch stream (kept so the report can
    #: re-fold under different eviction policies).
    streams: Dict[str, List[ProfileDelta]] = field(default_factory=dict)
    failures: Dict[str, InstanceFailure] = field(default_factory=dict)
    #: Per-epoch staleness stats from the store folds.
    epoch_stats: List[Dict[str, float]] = field(default_factory=list)


def instance_spec(config: FleetConfig, index: int):
    """The generator spec for fleet instance ``index``.

    Heterogeneous fleets perturb the workload seed per instance; the
    generated *program shape* (hot methods, call sites) is identical
    across seeds because the generator allocates hot-path ids before
    consuming seed-dependent randomness -- only work amounts and the
    cold-code mass vary, which is exactly the per-instance behaviour
    drift the dilution experiment needs.
    """
    spec = SPECS[config.benchmark]
    iterations = max(50, int(spec.iterations * config.scale))
    seed = spec.seed + (index * SEED_STRIDE if config.heterogeneous else 0)
    return dataclasses.replace(spec, iterations=iterations, seed=seed)


def _instance_phase(index: int) -> float:
    """Deterministic per-instance sampling phase in [0, 1)."""
    return (0.137 * index + 0.05) % 1.0


class _DeltaCapture:
    """Event sink whose ``epoch`` event captures clamped profile deltas.

    Keeps the last published absolute weights and emits max(0, new-old)
    per key (decay can shrink weights between publishes; a negative
    delta would corrupt the additive store).  Trace deltas are re-keyed
    through a CCT round trip; edge deltas come from the DCG's depth-1
    projection.
    """

    def __init__(self, publish_every: int):
        self.publish_every = publish_every
        self.deltas: List[ProfileDelta] = []
        self._last_traces: Dict[WireKey, float] = {}
        self._last_edges: Dict[WireKey, float] = {}

    def epoch(self, runtime: AdaptiveRuntime, epoch: int) -> None:
        if epoch % self.publish_every:
            return
        self.capture(runtime, epoch // self.publish_every)

    def capture(self, runtime: AdaptiveRuntime, publish_epoch: int) -> None:
        cct = CallingContextTree()
        for key, weight in runtime.state.dcg.items():
            cct.add_trace(key, weight)
        traces = {wire_key(key.callee, key.context): weight
                  for key, weight in cct.to_trace_weights().items()}
        edges = {wire_key(key.callee, key.context): weight
                 for key, weight in runtime.state.dcg.edge_weights().items()}
        delta = ProfileDelta(
            epoch=publish_epoch,
            trace_weights=_clamped_delta(self._last_traces, traces),
            edge_weights=_clamped_delta(self._last_edges, edges))
        self._last_traces = traces
        self._last_edges = edges
        if delta.trace_weights or delta.edge_weights:
            self.deltas.append(delta)


def _clamped_delta(old: Dict[WireKey, float],
                   new: Dict[WireKey, float]) -> Dict[WireKey, float]:
    out: Dict[WireKey, float] = {}
    for key in sorted(new):
        delta = new[key] - old.get(key, 0.0)
        if delta > 0.0:
            out[key] = delta
    return out


def run_instance(config: FleetConfig, index: int,
                 costs: CostModel = DEFAULT_COSTS,
                 provenance: Optional[ProvenanceRecorder] = None,
                 warm_profile=None) \
        -> Tuple[RunResult, List[ProfileDelta]]:
    """Run one fleet instance; returns its result and epoch stream.

    ``warm_profile`` (a :class:`repro.fleet.bootstrap.WarmProfile`)
    bootstraps the runtime from fleet-aggregated profiles before
    execution -- the late-joiner path.
    """
    generated = generate(instance_spec(config, index))
    policy = make_policy(config.family, config.depth, costs)
    runtime = AdaptiveRuntime(generated.program, policy, costs,
                              sample_phase=_instance_phase(index),
                              provenance=provenance)
    if warm_profile is not None:
        from repro.fleet.bootstrap import apply_warm_start
        apply_warm_start(runtime, warm_profile)
    capture = _DeltaCapture(config.publish_every)
    runtime.machine.events = capture
    result = runtime.run()
    # Flush the tail window so samples after the last periodic publish
    # still reach the store.
    capture.capture(runtime, (runtime._epoch // config.publish_every) + 1)
    return result, capture.deltas


def _instance_worker(args) \
        -> Tuple[int, RunResult, List[ProfileDelta]]:
    config, index = args
    result, deltas = run_instance(config, index)
    return index, result, deltas


def run_fleet(config: FleetConfig,
              store: Optional[ShardedProfileStore] = None,
              costs: CostModel = DEFAULT_COSTS,
              verbose: bool = False) -> FleetOutcome:
    """Run every instance and fold their epoch streams into the store."""
    if store is None:
        store = ShardedProfileStore()
    fingerprint = program_fingerprint(config.benchmark, config.scale)
    outcome = FleetOutcome(config=config, fingerprint=fingerprint,
                           store=store)
    instance_ids = config.instance_ids()

    pending = list(range(config.instances))
    collected: Dict[int, Tuple[RunResult, List[ProfileDelta]]] = {}

    def finish(index: int, result: RunResult,
               deltas: List[ProfileDelta]) -> None:
        collected[index] = (result, deltas)
        if verbose:
            print(f"  [{len(collected) + len(outcome.failures)}"
                  f"/{config.instances}] done {instance_ids[index]}")

    def fail(index: int, failure: InstanceFailure) -> None:
        outcome.failures[failure.instance_id] = failure
        if verbose:
            print(f"  [{len(collected) + len(outcome.failures)}"
                  f"/{config.instances}] FAILED {failure.instance_id}: "
                  f"{failure.error_type}: {failure.message}")

    jobs = config.jobs if config.jobs > 0 else (len(pending) or 1)
    if jobs > 1 and len(pending) > 1:
        pending = _run_instances_parallel(config, pending, jobs,
                                          config.timeout, finish, fail)
    for index in pending:
        _run_instance_with_retry(config, index, finish, fail)

    for index in sorted(collected):
        result, deltas = collected[index]
        outcome.results[instance_ids[index]] = result
        outcome.streams[instance_ids[index]] = deltas

    fold_streams(store, fingerprint, outcome.streams,
                 stats=outcome.epoch_stats)
    return outcome


def fold_streams(store: ShardedProfileStore, fingerprint: str,
                 streams: Dict[str, List[ProfileDelta]],
                 stats: Optional[List[Dict[str, float]]] = None) -> None:
    """Replay epoch streams into a store in (epoch, instance) order.

    Advancing the store epoch between epoch groups applies decay and
    staleness eviction exactly as a live service folding the same
    deltas at the same boundaries would.
    """
    by_epoch: Dict[int, List[Tuple[str, ProfileDelta]]] = {}
    for instance_id in sorted(streams):
        for delta in streams[instance_id]:
            by_epoch.setdefault(delta.epoch, []).append((instance_id, delta))
    for epoch in sorted(by_epoch):
        for instance_id, delta in sorted(by_epoch[epoch],
                                         key=lambda pair: pair[0]):
            store.publish(instance_id, fingerprint, delta.trace_weights,
                          delta.edge_weights)
        epoch_stat = store.advance_epoch()
        if stats is not None:
            stats.append(epoch_stat)


# -- fault-tolerant instance executors ----------------------------------------


def _run_instance_with_retry(config: FleetConfig, index: int, finish, fail,
                             attempts_before: int = 0) -> None:
    attempts = attempts_before
    last: Optional[BaseException] = None
    while attempts < MAX_INSTANCE_ATTEMPTS:
        attempts += 1
        try:
            _index, result, deltas = _instance_worker((config, index))
        except Exception as exc:
            last = exc
            continue
        finish(index, result, deltas)
        return
    assert last is not None
    fail(index, InstanceFailure(
        instance_id=config.instance_ids()[index],
        error_type=type(last).__name__, message=str(last),
        attempts=attempts))


def _run_instances_parallel(config: FleetConfig, pending: List[int],
                            jobs: int, timeout: Optional[float],
                            finish, fail) -> List[int]:
    """Fan instances out over a process pool; returns stranded indices."""
    try:
        from concurrent.futures import ProcessPoolExecutor
        from concurrent.futures import TimeoutError as FutureTimeout
        from concurrent.futures.process import BrokenProcessPool
        executor = ProcessPoolExecutor(max_workers=min(jobs, len(pending)))
        futures = [(index, executor.submit(_instance_worker,
                                           (config, index)))
                   for index in pending]
    except Exception as exc:
        warnings.warn(
            f"worker pool unavailable ({type(exc).__name__}: {exc}); "
            f"running fleet instances in-process",
            RuntimeWarning, stacklevel=3)
        return list(pending)

    stranded: List[int] = []
    try:
        for index, future in futures:
            try:
                _index, result, deltas = future.result(timeout=timeout)
            except FutureTimeout:
                future.cancel()
                fail(index, InstanceFailure(
                    instance_id=config.instance_ids()[index],
                    error_type="TimeoutError",
                    message=f"instance exceeded the per-instance timeout "
                            f"of {timeout:g}s",
                    attempts=1))
            except BrokenProcessPool:
                stranded.append(index)
            except Exception:
                _run_instance_with_retry(config, index, finish, fail,
                                         attempts_before=1)
            else:
                finish(index, result, deltas)
    finally:
        executor.shutdown(wait=False, cancel_futures=True)
    return stranded


def trace_key_of(key: WireKey) -> TraceKey:
    """Rehydrate a wire key into a :class:`TraceKey`."""
    callee, context = key
    return TraceKey(callee, context)
