"""Crash-consistent checkpoint tests (``repro.machine.checkpoint``).

The contract under test: a run interrupted at *any* event boundary and
resumed from a snapshot — in-process, from disk, or across a SIGKILL —
finishes with byte-identical statistics to the uninterrupted run, for
every directory-scheme family.  Alongside the end-to-end guarantees,
this file holds the integrity gates (torn files, corruption, schema and
config mismatches), the zero-cost and instrumentation-exclusion checks,
the supervised-sweep mid-run resume path, and the hypothesis property
that every scheme's directory entry round-trips through pickle —
including overflow-cache eviction order and linked-list chain order.
"""

import json
import os
import pickle
import signal

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.supervisor import (
    ChaosPlan,
    SupervisorPolicy,
    SweepManifest,
    SweepReport,
    checkpoint_file,
    fork_context,
)
from repro.analysis.sweeps import Sweep
from repro.apps import MP3DWorkload, UniformRandomWorkload
from repro.core import (
    CoarseVectorScheme,
    FullBitVectorScheme,
    LimitedPointerBroadcastScheme,
    LimitedPointerNoBroadcastScheme,
    LinkedListScheme,
    OverflowCacheScheme,
    SupersetScheme,
)
from repro.machine import DashSystem, MachineConfig
from repro.machine.cache import ProcessorCache
from repro.machine.checkpoint import (
    CKPT_SCHEMA,
    CheckpointError,
    CheckpointIntegrityError,
    CheckpointSchemaError,
    SimCheckpoint,
    UnregisteredContinuationError,
    load_checkpoint,
    read_header,
    verify_checkpoint,
)
from repro.machine.processor import _END
from repro.obs.tracer import Tracer

P = 8

#: one representative per directory-format family, including the sparse
#: overflow configuration (replacement traffic exercises HINT events)
SCHEME_FAMILIES = {
    "full-map": {},
    "broadcast": {"scheme": "Dir2B"},
    "no-broadcast": {"scheme": "Dir1NB"},
    "superset": {"scheme": "Dir4X"},
    "coarse-vector": {"scheme": "Dir4CV4"},
    "linked-list": {"scheme": "DirLL"},
    "sparse-overflow": {"scheme": "Dir2OF8", "sparse_size_factor": 1.0},
}

needs_fork = pytest.mark.skipif(
    fork_context() is None, reason="requires fork start method"
)


def _workload():
    return MP3DWorkload(P, num_particles=120, seed=3)


def _config(**overrides):
    fields = {"num_clusters": P, "seed": 5}
    fields.update(overrides)
    return MachineConfig(**fields)


def _stats_json(stats) -> str:
    return json.dumps(stats.to_dict(), sort_keys=True)


_baselines = {}


def _baseline(config) -> str:
    """Uninterrupted-run stats for ``config`` (memoized per config)."""
    key = json.dumps(config.cache_key_fields(), sort_keys=True)
    if key not in _baselines:
        _baselines[key] = _stats_json(DashSystem(config, _workload()).run())
    return _baselines[key]


# -- end-to-end determinism ------------------------------------------------


@pytest.mark.parametrize(
    "overrides", SCHEME_FAMILIES.values(), ids=SCHEME_FAMILIES.keys()
)
def test_split_run_is_byte_identical(overrides):
    """Checkpoint mid-run, restore into a fresh machine, run to the end:
    the stitched run's stats equal the uninterrupted run's, exactly."""
    config = _config(**overrides)
    first = DashSystem(config, _workload())
    first.run(max_events=150)
    ckpt = first.checkpoint()
    assert ckpt.header["events_run"] == first.events.events_run
    assert ckpt.header["scheme"] == first.scheme.name

    second = DashSystem(config, _workload())
    second.restore(ckpt)
    assert second.events.events_run == first.events.events_run
    assert _stats_json(second.run()) == _baseline(config)


#: configurations whose state the checkpoint must carry beyond the plain
#: machine: fault RNG and retries, the strict checker's outstanding
#: transactions, release-consistency write buffers and fences (partial
#: continuations), pooled entries and sparse LRU stamps
SPLIT_VARIANTS = {
    "faults-coarse-vector": ({"scheme": "Dir4CV4"}, {"faults": 7}),
    "faults-sparse-lru": (
        {"scheme": "Dir3CV2", "sparse_size_factor": 1.0,
         "sparse_policy": "lru"},
        {"faults": 7},
    ),
    # small caches: a strict scan walks every cache set after each
    # transaction
    "strict-invariants": (
        {"l1_bytes": 1024, "l2_bytes": 4096}, {"invariants": "strict"}
    ),
    "release-consistency": (
        {"scheme": "Dir3B", "release_consistency": True}, {}
    ),
    "shared-entry": ({"shared_entry_group": 2}, {}),
}


@pytest.mark.parametrize("cut", [37, 150, 777])
@pytest.mark.parametrize(
    "overrides,kwargs", SPLIT_VARIANTS.values(), ids=SPLIT_VARIANTS.keys()
)
def test_split_run_variants_are_byte_identical(overrides, kwargs, cut):
    """Split runs stay exact with fault injection, strict invariants,
    release consistency and pooled entries, at early and late cuts; the
    restored machine re-captures to the identical payload."""
    config = _config(**overrides)
    key = json.dumps([config.cache_key_fields(), kwargs], sort_keys=True)
    if key not in _baselines:
        _baselines[key] = _stats_json(
            DashSystem(config, _workload(), **kwargs).run()
        )

    first = DashSystem(config, _workload(), **kwargs)
    first.run(max_events=cut)
    ckpt = first.checkpoint()
    second = DashSystem(config, _workload(), **kwargs)
    second.restore(ckpt)
    assert second.checkpoint().payload() == ckpt.payload()
    assert _stats_json(second.run()) == _baselines[key]


def test_split_run_at_end_of_stream_fence():
    """Cut while a release-consistency processor holds its end of stream
    behind outstanding writes: the restored fence slot still holds the
    end-of-stream marker itself, not a copy of it."""
    config = _config(scheme="Dir3B", release_consistency=True)

    def workload():
        return UniformRandomWorkload(P, refs_per_proc=60, write_fraction=0.5)

    plain = _stats_json(DashSystem(config, workload()).run())
    first = DashSystem(config, workload())
    first.run(max_events=1)
    while first.events and not any(p._fence is _END for p in first.processors):
        first.events.run(max_events=1)
    assert first.events, "no processor ever fenced its end of stream"

    second = DashSystem(config, workload())
    second.restore(first.checkpoint())
    assert _stats_json(second.run()) == plain


def test_traced_split_run_matches_plain_traced_run():
    """A traced run split by a checkpoint ends with the same events and
    tallies as an uninterrupted traced run, ``ckpt.*`` excluded."""
    config = _config(scheme="Dir2B")
    plain = Tracer(1 << 17)
    DashSystem(config, _workload(), obs=plain).run()

    first = DashSystem(config, _workload(), obs=Tracer(1 << 17))
    first.run(max_events=150)
    ckpt = first.checkpoint()
    resumed = Tracer(1 << 17)
    second = DashSystem(config, _workload(), obs=resumed)
    second.restore(ckpt)
    second.run()

    def strip(tracer):
        return [e for e in tracer.events() if not e.name.startswith("ckpt.")]

    def tallies(tracer):
        counts = {k: n for k, n in tracer.counts.items()
                  if not k.startswith("ckpt.")}
        counters = {k: c.to_dict() for k, c in tracer.metrics.counters.items()
                    if not k.startswith("ckpt_")}
        return counts, counters, tracer.metrics.to_dict()["histograms"]

    assert strip(resumed) == strip(plain)
    assert tallies(resumed) == tallies(plain)


def test_checkpoint_file_round_trip(tmp_path):
    """Disk round trip: header readable, verification passes, the loaded
    snapshot resumes to the uninterrupted result, no temp file remains."""
    config = _config(scheme="Dir4CV4")
    path = str(tmp_path / "mid.ckpt")
    system = DashSystem(config, _workload())
    system.run(max_events=200)
    system.checkpoint(path)
    assert not os.path.exists(path + ".tmp")  # atomic tmp+rename

    header = read_header(path)
    assert header["schema"] == CKPT_SCHEMA
    assert header["scheme"] == "Dir4CV4"
    assert header["events_run"] == 200
    assert header["config"] == config.cache_key_fields()

    verified = verify_checkpoint(path)
    assert verified["fingerprint_match"] is True

    resumed = DashSystem(config, _workload())
    resumed.restore(load_checkpoint(path))
    assert _stats_json(resumed.run()) == _baseline(config)


@needs_fork
def test_sigkill_resume_matches_uninterrupted(tmp_path):
    """The headline crash test: SIGKILL the process right after a periodic
    snapshot lands, then resume from the file in a new process image."""
    config = _config(scheme="Dir4CV4")
    path = str(tmp_path / "killed.ckpt")

    def victim():
        system = DashSystem(config, _workload())
        system.run(
            checkpoint_path=path,
            checkpoint_interval=150,
            on_checkpoint=lambda _ckpt: os.kill(os.getpid(), signal.SIGKILL),
        )

    proc = fork_context().Process(target=victim)
    proc.start()
    proc.join(60)
    assert proc.exitcode == -signal.SIGKILL

    ckpt = load_checkpoint(path)
    assert ckpt.header["events_run"] == 150
    system = DashSystem(config, _workload())
    system.restore(ckpt)
    assert _stats_json(system.run()) == _baseline(config)


# -- zero cost and instrumentation exclusion -------------------------------


def test_periodic_checkpointing_leaves_stats_identical(tmp_path):
    """Snapshotting every N events must not perturb the simulation: the
    checkpointed run's stats are byte-identical to the plain run's."""
    config = _config(scheme="DirLL")
    path = str(tmp_path / "periodic.ckpt")
    seen = []
    stats = DashSystem(config, _workload()).run(
        checkpoint_path=path,
        checkpoint_interval=100,
        on_checkpoint=lambda ckpt: seen.append(ckpt.header["events_run"]),
    )
    assert seen, "workload too small: no periodic snapshot was due"
    assert seen == sorted(seen)
    assert os.path.exists(path)
    assert _stats_json(stats) == _baseline(config)


def test_traced_run_identical_modulo_ckpt_instrumentation(tmp_path):
    """With tracing on, a checkpointed run differs from a clean one only
    by ``ckpt.*`` events and ``ckpt_*`` counters (the determinism
    contract's carve-out for harness activity)."""
    config = _config(scheme="Dir2B")

    plain = Tracer(1 << 17)
    DashSystem(config, _workload(), obs=plain).run()

    ckpt = Tracer(1 << 17)
    DashSystem(config, _workload(), obs=ckpt).run(
        checkpoint_path=str(tmp_path / "traced.ckpt"),
        checkpoint_interval=120,
    )
    assert ckpt.metrics.counter("ckpt_saves").to_dict() >= 1
    assert ckpt.metrics.counter("ckpt_bytes").to_dict() > 0

    def strip(tracer):
        return [e for e in tracer.events() if not e.name.startswith("ckpt.")]

    assert strip(ckpt) == strip(plain)

    def counters(tracer):
        return {
            k: c.to_dict()
            for k, c in tracer.metrics.counters.items()
            if not k.startswith("ckpt_")
        }

    assert counters(ckpt) == counters(plain)


def test_captured_snapshot_excludes_ckpt_instrumentation(tmp_path):
    """Snapshots taken at the same event count are identical no matter how
    many checkpoints preceded them: a restore + re-checkpoint reproduces
    the original payload byte for byte (untraced runs)."""
    config = _config()
    first = DashSystem(config, _workload())
    first.run(max_events=100)
    a = first.checkpoint()
    b = first.checkpoint()  # repeated capture of an untouched machine
    assert a.payload() == b.payload()

    second = DashSystem(config, _workload())
    second.restore(a)
    assert second.checkpoint().payload() == a.payload()


def test_cache_sets_pickle_in_canonical_order():
    """A set iterates in an order that depends on its insertion history,
    which a restore does not replay; a cache pickles its writeback
    buffer in an order fixed by the contents, so a round trip pickles
    back to the same bytes."""
    cache = ProcessorCache(16, 256, 1, 1024, 1)
    cache.wb_buffer.update(range(40))
    for block in range(40):
        if block not in (3, 9):
            cache.wb_buffer.discard(block)
    clone = pickle.loads(pickle.dumps(cache))
    assert clone.wb_buffer == {3, 9}
    assert pickle.dumps(clone) == pickle.dumps(cache)


# -- integrity and compatibility gates -------------------------------------


def _write_checkpoint(tmp_path, name="gate.ckpt", **overrides):
    config = _config(**overrides)
    path = str(tmp_path / name)
    system = DashSystem(config, _workload())
    system.run(max_events=100)
    system.checkpoint(path)
    return config, path


def test_torn_checkpoint_detected(tmp_path):
    _, path = _write_checkpoint(tmp_path)
    data = open(path, "rb").read()
    open(path, "wb").write(data[:-20])  # lose the payload tail
    with pytest.raises(CheckpointIntegrityError, match="torn"):
        load_checkpoint(path)


def test_corrupted_payload_detected(tmp_path):
    _, path = _write_checkpoint(tmp_path)
    data = bytearray(open(path, "rb").read())
    data[-10] ^= 0xFF  # same length, different bytes
    open(path, "wb").write(bytes(data))
    with pytest.raises(CheckpointIntegrityError, match="SHA-256"):
        load_checkpoint(path)


def test_non_checkpoint_file_rejected(tmp_path):
    path = tmp_path / "noise.ckpt"
    path.write_bytes(b"\x80\x04not a checkpoint\n" + os.urandom(64))
    with pytest.raises(CheckpointIntegrityError):
        read_header(str(path))


def test_unknown_schema_rejected(tmp_path):
    _, path = _write_checkpoint(tmp_path)
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        payload = fh.read()
    header["schema"] = CKPT_SCHEMA + 999
    with open(path, "wb") as fh:
        fh.write(json.dumps(header).encode() + b"\n" + payload)
    with pytest.raises(CheckpointSchemaError, match="schema"):
        load_checkpoint(path)


def test_config_mismatch_names_differing_fields(tmp_path):
    _, path = _write_checkpoint(tmp_path)
    other = DashSystem(_config(seed=6), _workload())
    with pytest.raises(CheckpointError, match="seed"):
        other.restore(load_checkpoint(path))


def test_foreign_build_fingerprint_rejected(tmp_path):
    config, path = _write_checkpoint(tmp_path)
    ckpt = load_checkpoint(path)
    ckpt.header["code_fingerprint"] = "0" * 64
    with pytest.raises(CheckpointSchemaError, match="different build"):
        DashSystem(config, _workload()).restore(ckpt)
    # but a foreign header must still be *inspectable*
    assert read_header(path)["magic"] == "repro-ckpt"


def test_unregistered_continuation_rejected():
    """A lambda smuggled into the event queue fails capture loudly (the
    tree-wide lint rule catches this statically; this is the runtime
    backstop)."""
    system = DashSystem(_config(), _workload())
    system.run(max_events=50)
    system.events.after(1.0, lambda: None)
    with pytest.raises(UnregisteredContinuationError):
        SimCheckpoint.capture(system)


# -- supervised sweeps: mid-run kill, mid-point resume ---------------------


@needs_fork
def test_supervised_midkill_resumes_byte_identical(tmp_path):
    """Chaos SIGKILLs workers right after their first periodic snapshot;
    retries must *resume* (events saved, ``resumed`` recorded) and the
    sweep's results must equal a clean serial run's, byte for byte."""
    base = MachineConfig(num_clusters=P, seed=3)

    def build():
        return Sweep(
            base, _workload, check_coherence=True
        ).add_axis("scheme", ["full", "DirLL"])

    clean = [
        (p.overrides, _stats_json(p.stats)) for p in build().run().points
    ]

    report = SweepReport()
    policy = SupervisorPolicy(
        timeout=60,
        chaos=ChaosPlan(actions={0: "midkill", 1: "midkill"}),
    )
    results = build().run(
        jobs=2,
        policy=policy,
        report=report,
        checkpoint_dir=tmp_path,
        checkpoint_interval=300,
    )
    chaotic = [
        (p.overrides, _stats_json(p.stats)) for p in results.points
    ]
    assert chaotic == clean

    counts = report.counts()
    assert counts["resumed_from_checkpoint"] == 2
    # each point was killed right after its first 300-event snapshot, so
    # each resume skipped exactly those already-simulated events
    assert counts["events_saved"] == 600
    assert counts["retries"] >= 2
    # completed points' snapshots are deleted (nothing left to resume)
    assert list(tmp_path.glob("*.ckpt")) == []


@needs_fork
def test_midkill_without_checkpointing_degrades_to_plain_kill(tmp_path):
    """``--chaos-midkill`` with checkpointing off still exercises the
    death path: the worker is killed immediately and the retry restarts
    the point from scratch (no resume recorded)."""
    base = MachineConfig(num_clusters=P, seed=3)
    sweep = Sweep(base, _workload).add_axis("scheme", ["full"])
    report = SweepReport()
    policy = SupervisorPolicy(
        timeout=60, chaos=ChaosPlan(actions={0: "midkill"})
    )
    results = sweep.run(jobs=1, policy=policy, report=report)
    assert len(results.points) == 1
    counts = report.counts()
    assert counts["resumed_from_checkpoint"] == 0
    assert counts["events_saved"] == 0
    assert counts["retries"] >= 1


def test_checkpoint_file_naming_and_partial_manifest(tmp_path):
    """`checkpoint_file` yields stable per-point names, and a manifest
    distinguishes mid-run-resumable points from done/pending ones."""
    assert checkpoint_file(tmp_path, 7).name == "point00007.ckpt"
    assert checkpoint_file(str(tmp_path), 12345).name == "point12345.ckpt"

    manifest = SweepManifest(
        tmp_path / "m.json", "k" * 64,
        ["a", "b", "c"], ["p0", "p1", "p2"],
        statuses={0: "completed", 1: "partial", 2: "pending"},
    )
    assert manifest.done_indices() == [0]
    assert manifest.partial_indices() == [1]


# -- scheme-entry state round trips (hypothesis) ---------------------------

NUM_NODES = 32

SCHEME_BUILDERS = [
    lambda: FullBitVectorScheme(NUM_NODES),
    lambda: LimitedPointerBroadcastScheme(NUM_NODES, 3),
    lambda: LimitedPointerNoBroadcastScheme(NUM_NODES, 3, seed=11),
    lambda: SupersetScheme(NUM_NODES, 2),
    lambda: CoarseVectorScheme(NUM_NODES, 3, 4),
    lambda: LinkedListScheme(NUM_NODES),
    lambda: OverflowCacheScheme(NUM_NODES, 3, 4),
]

nodes = st.integers(min_value=0, max_value=NUM_NODES - 1)
histories = st.lists(st.tuples(nodes, st.booleans()), max_size=60)


def _apply(entry, true_sharers, history):
    """Replay add/remove-hint ops the way a machine would (as in
    test_properties_schemes), mutating ``true_sharers`` in place."""
    for node, is_add in history:
        if is_add:
            evicted = entry.record_sharer(node)
            true_sharers.add(node)
            for victim in evicted:
                true_sharers.discard(victim)
        else:
            if node in true_sharers:
                true_sharers.discard(node)
                entry.remove_sharer(node)


@settings(max_examples=60)
@given(
    history=histories,
    extra=histories,
    builder_idx=st.integers(0, len(SCHEME_BUILDERS) - 1),
)
def test_entry_state_round_trips(history, extra, builder_idx):
    """Every scheme's entry survives a pickle round trip together with
    its scheme: the clone reports the same targets and exactness, and —
    the strong form — *behaves identically* on further operations.  That
    covers overflow-cache LRU eviction order, linked-list chain order,
    and the NB victim RNG (shared state that lives on the scheme)."""
    scheme = SCHEME_BUILDERS[builder_idx]()
    entry = scheme.make_entry()
    true_sharers = set()
    _apply(entry, true_sharers, history)

    clone_scheme, clone = pickle.loads(pickle.dumps((scheme, entry)))
    assert clone_scheme is not scheme
    assert clone.invalidation_targets() == entry.invalidation_targets()
    assert clone.is_exact() == entry.is_exact()
    assert clone.is_empty() == entry.is_empty()

    # continued behavior: same evictions, same targets, same state
    clone_sharers = set(true_sharers)
    for node, is_add in extra:
        if is_add:
            evicted = entry.record_sharer(node)
            assert clone.record_sharer(node) == evicted
            true_sharers.add(node)
            clone_sharers.add(node)
            for victim in evicted:
                true_sharers.discard(victim)
                clone_sharers.discard(victim)
        else:
            if node in true_sharers:
                true_sharers.discard(node)
                entry.remove_sharer(node)
            if node in clone_sharers:
                clone_sharers.discard(node)
                clone.remove_sharer(node)
    assert pickle.dumps((clone_scheme, clone)) == pickle.dumps((scheme, entry))
    assert clone.invalidation_targets() == entry.invalidation_targets()
