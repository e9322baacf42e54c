"""The benchmark's four workloads and the checks on their simulated output.

Each workload is a list of :class:`~repro.analysis.sweeps.PointSpec`
built from the run's seed; the seed goes to the application and to
``MachineConfig.seed`` (which drives sparse random replacement).  The
parameters are pinned here rather than borrowed from the figure scripts,
so the benchmark measures the same work on every commit; at seed 0 the
results check ties them back to the committed figure data.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional

from benchmarks.bench_fig11_12_sparsity import check_dwf
from benchmarks.common import stats_summary
from repro.analysis.sweeps import PointSpec
from repro.apps import DWFWorkload, LUWorkload, MP3DWorkload
from repro.machine import MachineConfig, SimStats

PROCESSORS = 32

RESULTS_DIR = Path(__file__).resolve().parent.parent / "results"


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: its points and how to check their output."""

    name: str
    #: seed -> the points to simulate
    points: Callable[[int], List[PointSpec]]
    #: True: the points run together through ``run_points`` with one
    #: worker per usable CPU, timed as one grid; False: a single point
    #: timed in-process
    grid: bool = False
    #: committed ``results/*.json`` the seed-0 output must reproduce
    results_file: Optional[str] = None
    #: the figure script's own shape assertions, fed {(scheme, sf): stats}
    figure_check: Optional[Callable[[Dict[tuple, SimStats]], None]] = None


def _lu_sparse_miss(seed: int) -> List[PointSpec]:
    # Figure 11's size-factor-1 point: scaled caches keep LU's
    # dataset:cache ratio, so nearly every reference misses remotely
    cfg = MachineConfig(
        num_clusters=PROCESSORS, scheme="Dir3CV2", l1_bytes=128, l2_bytes=256,
        sparse_size_factor=1.0, sparse_assoc=4, sparse_policy="random",
        seed=seed,
    )
    return [PointSpec(cfg, lambda: LUWorkload(PROCESSORS, matrix_n=64, seed=seed),
                      label="Dir3CV2@1.0")]


def _lu_hits(seed: int) -> List[PointSpec]:
    cfg = MachineConfig(num_clusters=PROCESSORS, scheme="Dir3B", seed=seed)
    return [PointSpec(cfg, lambda: LUWorkload(PROCESSORS, matrix_n=96, seed=seed),
                      label="Dir3B@None")]


def _mp3d_migratory(seed: int) -> List[PointSpec]:
    cfg = MachineConfig(num_clusters=PROCESSORS, scheme="Dir3CV2", seed=seed)
    return [PointSpec(
        cfg,
        lambda: MP3DWorkload(PROCESSORS, num_particles=6144, space_cells=96,
                             steps=4, seed=seed),
        label="Dir3CV2@None",
    )]


#: Figure 12's axes, in the figure script's grid order
GRID_SCHEMES = ("full", "Dir3CV2", "Dir3B")
GRID_SIZE_FACTORS = (None, 4.0, 2.0, 1.0)


def _sweep_dwf_grid(seed: int) -> List[PointSpec]:
    def dwf() -> DWFWorkload:
        return DWFWorkload(PROCESSORS, pattern_len=64, library_len=384,
                           col_block=32, seed=seed)

    return [
        PointSpec(
            MachineConfig(
                num_clusters=PROCESSORS, scheme=scheme, l1_bytes=256,
                l2_bytes=1024, sparse_size_factor=sf, sparse_assoc=4,
                sparse_policy="random", seed=seed,
            ),
            dwf,
            check=True,
            label=f"{scheme}@{sf}",
        )
        for scheme in GRID_SCHEMES
        for sf in GRID_SIZE_FACTORS
    ]


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("lu_sparse_miss", _lu_sparse_miss, results_file="fig11_lu.json"),
        Workload("lu_hits", _lu_hits),
        Workload("mp3d_migratory", _mp3d_migratory),
        Workload("sweep_dwf_grid", _sweep_dwf_grid, grid=True,
                 results_file="fig12_dwf.json", figure_check=check_dwf),
    )
}


def warmup_points() -> List[PointSpec]:
    """Two tiny points that touch the same code paths before timing."""
    cfg = MachineConfig(num_clusters=PROCESSORS, scheme="Dir3CV2", l1_bytes=128,
                        l2_bytes=256, sparse_size_factor=1.0)
    return [
        PointSpec(cfg, lambda: DWFWorkload(PROCESSORS, pattern_len=32,
                                           library_len=32, col_block=8)),
        PointSpec(cfg.with_(sparse_size_factor=None),
                  lambda: LUWorkload(PROCESSORS, matrix_n=24)),
    ]


def load_expected(workload: Workload) -> Optional[Dict[str, dict]]:
    """The committed per-point summaries the seed-0 run must reproduce."""
    if workload.results_file is None:
        return None
    with open(RESULTS_DIR / workload.results_file) as fh:
        return json.load(fh)


def results_mismatch(
    label: str, stats: SimStats, expected: Optional[Dict[str, dict]]
) -> Optional[str]:
    """Why ``stats`` disagrees with the committed summary, or None."""
    if expected is None:
        return None
    want = expected.get(label)
    got = stats_summary(stats)
    if want == got:
        return None
    if want is None:
        return f"{label}: no committed result"
    diff = sorted(k for k in set(want) | set(got) if want.get(k) != got.get(k))
    return f"{label}: differs from committed results in {', '.join(diff)}"


def figure_keys(points: List[PointSpec]) -> List[tuple]:
    """``(scheme, size_factor)`` keys the figure checks index results by."""
    return [(p.config.scheme, p.config.sparse_size_factor) for p in points]
