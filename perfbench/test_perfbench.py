"""Self-tests of the benchmark's plumbing.

Run from the repository root: ``python3 -m pytest perfbench -q``.
"""

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import run

assert run.add_source_paths(), "the simulator source must be present"

import calibrate  # noqa: E402
from calibrate import Interleaved, Sampler, chunk  # noqa: E402
from layers import LayerTrace  # noqa: E402
from measure import Checker, _exact_mismatches, _traced_point  # noqa: E402
from workloads import WORKLOADS, load_expected  # noqa: E402

from repro.analysis.sweeps import PointSpec  # noqa: E402
from repro.apps import LUWorkload  # noqa: E402
from repro.core.sparse import FullMapDirectory, SparseDirectory  # noqa: E402
from repro.machine import DashSystem, MachineConfig  # noqa: E402
from repro.machine.cluster import Cluster  # noqa: E402
from repro.machine.directory import DirectoryController  # noqa: E402
from repro.machine.events import EventQueue  # noqa: E402
from repro.machine.processor import Processor  # noqa: E402
from repro.machine.sync import SyncManager  # noqa: E402

#: small, but reaches every layer: sparse evictions, coarse-vector
#: entries, barriers and write-backs
SMALL = PointSpec(
    MachineConfig(num_clusters=8, scheme="Dir3CV2", l1_bytes=128, l2_bytes=256,
                  sparse_size_factor=1.0),
    lambda: LUWorkload(8, matrix_n=16),
    label="small",
)

WRAPPED = (EventQueue, Processor, DashSystem, Cluster, DirectoryController,
           FullMapDirectory, SparseDirectory, SyncManager, LUWorkload)


def _untraced(spec):
    system = DashSystem(spec.config, spec.workload_factory())
    return system, system.run()


def test_wrappers_leave_stats_and_classes_unchanged():
    before = {cls: dict(cls.__dict__) for cls in WRAPPED}
    system, plain = _untraced(SMALL)
    trace, traced_system, traced, _ = _traced_point(SMALL)
    _, after = _untraced(SMALL)
    assert json.dumps(traced.to_dict()) == json.dumps(plain.to_dict())
    assert json.dumps(after.to_dict()) == json.dumps(plain.to_dict())
    assert {cls: dict(cls.__dict__) for cls in WRAPPED} == before
    assert traced_system.events.events_run == system.events.events_run
    assert plain.sparse_replacements > 0
    assert all(t > 0 for t in trace.self_s[1:]), "a layer recorded no span"


def test_traced_counters_are_exact_and_repeat():
    system, plain = _untraced(SMALL)
    first = _traced_point(SMALL)
    second = _traced_point(SMALL)
    for trace, traced_system, _, _ in (first, second):
        assert _exact_mismatches(trace, traced_system, plain,
                                 system.events.events_run) == []
    assert first[0].calls == second[0].calls
    assert first[0].calls["store_evictions"] == plain.sparse_replacements


def test_layer_trace_restores_classes_after_an_exception():
    before = dict(EventQueue.__dict__)
    try:
        with LayerTrace([LUWorkload], []):
            raise RuntimeError("boom")
    except RuntimeError:
        pass
    assert dict(EventQueue.__dict__) == before


def test_interleaved_queue_leaves_stats_and_class_unchanged(monkeypatch):
    monkeypatch.setattr(calibrate, "SEGMENT_EVENTS", 500)
    system, plain = _untraced(SMALL)
    segmented = DashSystem(SMALL.config, SMALL.workload_factory())
    with Interleaved(segmented.events) as il:
        stats = segmented.run()
    assert json.dumps(stats.to_dict()) == json.dumps(plain.to_dict())
    assert segmented.events.events_run == system.events.events_run
    assert type(segmented.events) is EventQueue
    assert il.chunks > 2 and il.wall_chunk_s() > 0 and il.cpu_chunk_s() > 0


def test_calibration_chunk_is_fixed_work_and_sampler_stops():
    assert chunk() == chunk()
    with Sampler() as sampler:
        pass
    assert not sampler._thread.is_alive()
    assert sampler.samples and sampler.cpu_chunk_s() > 0
    assert sampler.cpu_s >= sum(sampler.samples)


def test_checker_passes_committed_results_and_flags_perturbations():
    grid = WORKLOADS["sweep_dwf_grid"]
    spec = grid.points(0)[0]  # full@None, a committed Figure 12 point
    expected = load_expected(grid)
    system, stats = _untraced(spec)

    good = Checker(expected)
    assert good.point(spec.label, stats, system=system)
    assert (good.attempted, good.failed) == (1, 0)

    perturbed = copy.deepcopy(expected)
    perturbed[spec.label]["total_messages"] += 1
    bad = Checker(perturbed)
    assert not bad.point(spec.label, stats)
    assert bad.failed == 1 and "total_messages" in bad.problems[0]

    repeat = Checker()
    assert repeat.point(spec.label, stats)
    stats.l1_hits += 1
    assert not repeat.point(spec.label, stats)
    assert "differ between repeats" in repeat.problems[0]


def test_exits_nonzero_without_the_simulator(tmp_path: Path):
    here = Path(run.__file__).resolve().parent
    shutil.copytree(here, tmp_path / here.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{here.name}/run.py", "--workload", "lu_hits",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
