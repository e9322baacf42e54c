"""Exact-stats snapshot of the remote-miss path.

Every config below is simulated and the sha256 of its
``SimStats.to_dict()`` (and of the lossless ``SimStats.to_state()``,
which adds the per-processor breakdown and the invalidation histograms)
must equal the committed fixture.  The configs cover what the directory
controller, the sparse store and the cache fill do on a miss: sparse
LRU / LRA / random replacement under three scheme families, replacement
hints, two processors per cluster (the bus paths), release consistency,
a fault seed, a shared-entry store, the linked-list scheme and a 1-way
sparse directory that drives ``AllWaysBusy`` retries.  The configs in
``TRACED`` are also run under a :class:`~repro.obs.tracer.Tracer`, and
the digest of every event it recorded is pinned too.

The fixture records simulated results, not code: it is regenerated only
when the model is meant to change, with

    PYTHONPATH=src python -m tests.test_miss_path_snapshot --write
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path
from typing import Callable, Dict, Tuple

import pytest

from repro.apps import DWFWorkload, LUWorkload, MP3DWorkload
from repro.machine import MachineConfig, run_workload
from repro.obs.tracer import Tracer
from repro.trace.workload import Workload

FIXTURE = Path(__file__).resolve().parent / "data" / "miss_path_snapshot.json"

CLUSTERS = 16

#: the small-cache sparse machine of Fig 11, scaled to 16 clusters
BASE = MachineConfig(
    num_clusters=CLUSTERS, l1_bytes=128, l2_bytes=256,
    sparse_size_factor=1.0, sparse_assoc=4, seed=1,
)


def _lu(procs: int = CLUSTERS) -> Callable[[], Workload]:
    return lambda: LUWorkload(procs, matrix_n=24, seed=1)


def _mp3d(procs: int = CLUSTERS) -> Callable[[], Workload]:
    return lambda: MP3DWorkload(procs, num_particles=256, space_cells=32,
                                steps=2, seed=1)


def _dwf() -> Callable[[], Workload]:
    return lambda: DWFWorkload(CLUSTERS, pattern_len=16, library_len=96,
                               col_block=8, seed=1)


def _configs() -> Dict[str, Tuple[MachineConfig, Callable[[], Workload], dict]]:
    """name -> (machine, workload factory, extra run_workload kwargs)."""
    out: Dict[str, Tuple[MachineConfig, Callable[[], Workload], dict]] = {}
    for policy in ("lru", "lra", "random"):
        for scheme in ("Dir3CV2", "Dir3B", "Dir3NB"):
            out[f"dwf-{scheme}-{policy}"] = (
                BASE.with_(scheme=scheme, sparse_policy=policy), _dwf(), {})
    out["lu-Dir3CV2-lru"] = (
        BASE.with_(scheme="Dir3CV2", sparse_policy="lru"), _lu(), {})
    out["lu-Dir3NB-random"] = (BASE.with_(scheme="Dir3NB"), _lu(), {})
    out["mp3d-Dir3CV2-lru"] = (
        BASE.with_(scheme="Dir3CV2", sparse_policy="lru"), _mp3d(), {})
    out["lu-Dir3CV2-hints"] = (
        BASE.with_(scheme="Dir3CV2", replacement_hints=True), _lu(), {})
    out["mp3d-Dir3NB-2ppc-hints"] = (
        BASE.with_(num_clusters=8, procs_per_cluster=2, scheme="Dir3NB",
                   replacement_hints=True),
        _mp3d(16), {})
    out["lu-Dir3B-2ppc"] = (
        BASE.with_(num_clusters=8, procs_per_cluster=2, scheme="Dir3B"),
        _lu(16), {})
    out["lu-Dir3CV2-rc"] = (
        BASE.with_(scheme="Dir3CV2", release_consistency=True), _lu(), {})
    out["mp3d-Dir3CV2-faults"] = (
        BASE.with_(scheme="Dir3CV2"), _mp3d(), {"faults": 7})
    out["mp3d-Dir3B-shared-entry"] = (
        BASE.with_(scheme="Dir3B", sparse_size_factor=None,
                   shared_entry_group=4),
        _mp3d(), {})
    out["lu-DirLL"] = (BASE.with_(scheme="DirLL"), _lu(), {})
    out["lu-Dir3CV2-assoc1"] = (
        BASE.with_(scheme="Dir3CV2", sparse_assoc=1), _lu(), {})
    out["mp3d-full-nonsparse"] = (
        BASE.with_(scheme="full", sparse_size_factor=None), _mp3d(), {})
    return out


#: configs whose traced run is pinned as well
TRACED = ("lu-Dir3CV2-assoc1", "mp3d-Dir3NB-2ppc-hints")


def _digest(payload: object) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def snapshot(name: str) -> Dict[str, str]:
    """The two digests of one config's simulated statistics."""
    config, workload, kwargs = _configs()[name]
    stats = run_workload(config, workload(), **kwargs)
    out = {"to_dict": _digest(stats.to_dict()),
           "to_state": _digest(stats.to_state())}
    if name in TRACED:
        tracer = Tracer(1 << 20)
        run_workload(config, workload(), obs=tracer, **kwargs)
        out["trace"] = _digest([e.to_json_dict() for e in tracer.events()])
    return out


@pytest.fixture(scope="module")
def expected() -> Dict[str, Dict[str, str]]:
    return json.loads(FIXTURE.read_text())


def test_fixture_covers_every_config(expected):
    assert sorted(expected) == sorted(_configs())


@pytest.mark.parametrize("name", sorted(_configs()))
def test_stats_match_snapshot(name, expected):
    assert snapshot(name) == expected[name]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python -m tests.test_miss_path_snapshot --write")
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text(json.dumps(
        {name: snapshot(name) for name in sorted(_configs())}, indent=1,
        sort_keys=True) + "\n")
    print(f"wrote {FIXTURE}")
