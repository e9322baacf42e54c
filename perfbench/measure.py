"""Timed and traced runs of one workload, with their output checks.

:func:`measure` gives the end-to-end metrics from untraced runs, with
times scaled to a reference host speed by :mod:`calibrate`;
:func:`trace` gives the per-layer metrics from one untraced and one
traced pass over the same points.  Both count every simulated point as
attempted and every point that fails a check as failed.
"""

from __future__ import annotations

import gc
import os
import resource
import statistics
import time
from collections import Counter
from typing import Dict, List, Optional, Tuple

from calibrate import (REF_CHUNK_S, Interleaved, Sampler, scale,
                       timed_chunk)
from layers import (APPS, CLUSTER, DIRECTORY, EVENTS, LAYERS,
                    PROCESSOR, SCHEME, STORE, STORE_METHODS, SYNC,
                    SYNC_METHODS, LayerTrace)
from workloads import (Workload, figure_keys, load_expected,
                       results_mismatch, warmup_points)

from repro.analysis.supervisor import SupervisorPolicy, SweepReport
from repro.analysis.sweeps import PointSpec, run_points
from repro.core.registry import make_scheme
from repro.core.sparse import FullMapDirectory, SparseDirectory
from repro.machine import DashSystem, SimStats
from repro.machine.cluster import Cluster
from repro.machine.directory import DirectoryController
from repro.machine.sync import SyncManager
from repro.obs.telemetry import usable_cpus

#: every timed run repeats its workload at least this often, so the
#: repeat check has something to compare and the median two samples
MIN_REPEATS = 2
#: set-up is short, so it is sampled this many times and the median kept
SETUP_SAMPLES = 15
#: events simulated by the discarded warm-up of an in-process workload
WARMUP_EVENTS = 50_000

Metrics = Dict[str, Tuple[float, str]]


class Checker:
    """Counts attempted and failed points and keeps what failed.

    A point fails if it raises, if its end-of-run coherence check fails,
    if its ``SimStats.to_dict()`` differs from an earlier repeat of the
    same point, or, when committed results are given (seed 0), if its
    summary differs from them.
    """

    def __init__(self, expected: Optional[Dict[str, dict]] = None) -> None:
        self.expected = expected
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        self._first: Dict[str, dict] = {}

    def point(self, label: str, stats: Optional[SimStats], *,
              system: Optional[DashSystem] = None,
              error: Optional[str] = None,
              extra: Tuple[str, ...] = ()) -> bool:
        """Check one finished point; returns True when it passed."""
        self.attempted += 1
        problems = [f"{label}: {p}" for p in extra]
        if error is not None or stats is None:
            problems.append(f"{label}: {error or 'no result'}")
        else:
            if system is not None:
                try:
                    system.check_coherence()
                except Exception as exc:  # noqa: BLE001 - reported as failure
                    problems.append(f"{label}: coherence: {exc}")
            record = stats.to_dict()
            if self._first.setdefault(label, record) != record:
                problems.append(f"{label}: SimStats differ between repeats")
            mismatch = results_mismatch(label, stats, self.expected)
            if mismatch:
                problems.append(mismatch)
        if problems:
            self.failed += 1
            self.problems.extend(problems)
        return not problems


def _describe(exc: Exception) -> str:
    return f"{type(exc).__name__}: {exc}"


def _refs(stats: SimStats) -> int:
    return sum(p.reads + p.writes for p in stats.procs)


def peak_rss_mb() -> float:
    """Peak resident set of this process or any waited-for child, in MB."""
    peak = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
               resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return peak / 1024.0  # ru_maxrss is in KiB on Linux


def _setup_s(spec: PointSpec, raw: List[float]) -> float:
    """Median time to build the workload and the machine for ``spec``.

    Each build is followed by a calibration chunk; the median build is
    scaled by the median chunk.  The unscaled median goes to ``raw``.
    """
    builds: List[float] = []
    chunks: List[float] = []
    for _ in range(SETUP_SAMPLES):
        gc.collect()  # a built machine is cyclic garbage; keep the peak RSS
        t0 = time.perf_counter()
        DashSystem(spec.config, spec.workload_factory())
        builds.append(time.perf_counter() - t0)
        chunks.append(timed_chunk())
    raw.append(statistics.median(builds))
    return scale(raw[-1], statistics.median(chunks))


def _run_grid(points: List[PointSpec], jobs: int
              ) -> Tuple[List[Optional[SimStats]], SweepReport, float, float]:
    """One pass of a grid through the sweep engine: stats, report, wall, cpu."""
    report = SweepReport()
    t0, c0 = time.perf_counter(), os.times()
    stats = run_points(points, jobs=jobs, report=report,
                       policy=SupervisorPolicy(keep_going=True))
    wall, c1 = time.perf_counter() - t0, os.times()
    cpu = sum(c1[:4]) - sum(c0[:4])  # user + system, self + children
    return stats, report, wall, cpu


def _check_grid(workload: Workload, points: List[PointSpec],
                stats: List[Optional[SimStats]], report: SweepReport,
                checker: Checker) -> None:
    figure_problem: Tuple[str, ...] = ()
    if workload.figure_check is not None and all(stats):
        try:
            workload.figure_check(dict(zip(figure_keys(points), stats)))
        except AssertionError as exc:
            figure_problem = (f"figure check failed: {exc}",)
    for i, (spec, st) in enumerate(zip(points, stats)):
        outcome = report.outcomes.get(i)
        checker.point(spec.label, st,
                      error=outcome.error if outcome is not None else None,
                      extra=figure_problem)


def measure(workload: Workload, seed: int, seconds: float
            ) -> Tuple[Metrics, Checker, dict]:
    """Untraced runs for ``seconds``: the end-to-end metrics."""
    points = workload.points(seed)
    checker = Checker(load_expected(workload) if seed == 0 else None)
    runs: List[float] = []
    cpus: List[float] = []
    raw_runs: List[float] = []
    raw_cpus: List[float] = []
    chunk_s: List[float] = []
    jobs = usable_cpus()

    t0 = time.perf_counter()
    if workload.grid:
        run_points(warmup_points(), jobs=jobs)
    else:
        spec = points[0]
        DashSystem(spec.config, spec.workload_factory()).run(
            max_events=WARMUP_EVENTS)
    warmup_s = time.perf_counter() - t0

    start = last = time.perf_counter()
    while len(runs) < MIN_REPEATS or (
            2 * time.perf_counter() - start - last <= seconds):
        # stop before a repeat as long as the last would pass ``seconds``
        last = time.perf_counter()
        gc.collect()
        if workload.grid:
            with Sampler() as sampler:
                stats, report, wall, cpu = _run_grid(points, jobs)
            cpu -= sampler.cpu_s
            wall_chunk = cpu_chunk = sampler.cpu_chunk_s()
            _check_grid(workload, points, stats, report, checker)
        else:
            spec = points[0]
            system = DashSystem(spec.config, spec.workload_factory())
            with Interleaved(system.events) as il:
                t0, c0 = time.perf_counter(), time.process_time()
                try:
                    stats = [system.run()]
                    error = None
                except Exception as exc:  # noqa: BLE001 - counted as failed
                    stats, error = [None], _describe(exc)
                cpu = time.process_time() - c0 - il.cal_cpu
                wall = time.perf_counter() - t0 - il.cal_wall
            wall_chunk, cpu_chunk = il.wall_chunk_s(), il.cpu_chunk_s()
            checker.point(spec.label, stats[0], system=system, error=error)
            del system
        raw_runs.append(wall)
        raw_cpus.append(cpu)
        chunk_s.append(wall_chunk)
        runs.append(scale(wall, wall_chunk))
        cpus.append(scale(cpu, cpu_chunk))

    raw_setup: List[float] = []
    # the grid's set-up is per point: the build the parent would do
    # before the first event
    setup = sum(_setup_s(spec, raw_setup) for spec in points)
    done = [s for s in stats if s is not None]  # the last repeat's points
    run_s = statistics.median(runs)
    metrics: Metrics = {
        "run_s": (run_s, "s"),
        "refs_per_s": (sum(_refs(s) for s in done) / run_s, "1/s"),
        "cpu_s": (statistics.median(cpus), "s"),
        "setup_s": (setup, "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "sim_cycles": (sum(s.exec_time for s in done), "cycles"),
        "messages": (sum(s.total_messages for s in done), "count"),
        "pass_frac": ((checker.attempted - checker.failed)
                      / max(1, checker.attempted), "ratio"),
    }
    record = {
        "samples": len(runs),
        "samples_per_metric": {"setup_s": SETUP_SAMPLES * len(points)},
        "reference_chunk_s": REF_CHUNK_S,
        "run_s_samples": runs,
        "cpu_s_samples": cpus,
        "chunk_s_samples": chunk_s,
        "unscaled": {"run_s_samples": raw_runs, "cpu_s_samples": raw_cpus,
                     "setup_s": sum(raw_setup)},
        "warmup_s_discarded": warmup_s,
        "jobs": jobs if workload.grid else 1,
    }
    return metrics, checker, record


# -- traced runs -------------------------------------------------------------


def _entry_class(spec: PointSpec) -> type:
    cfg = spec.config
    scheme = make_scheme(cfg.scheme, cfg.num_clusters, seed=cfg.seed)
    return type(scheme.make_entry())


def _exact_mismatches(trace: LayerTrace, system: DashSystem,
                      untraced: SimStats,
                      untraced_events: Optional[int]) -> List[str]:
    """Traced counters that disagree with the untraced run's results.

    The stats themselves are compared by the :class:`Checker` repeat check.
    """
    c = trace.calls
    probes = (untraced.l1_hits + untraced.l2_hits + untraced.local_misses
              + untraced.remote_misses)
    ops = sum(p.ops_consumed for p in system.processors)
    executed = system.events.events_run
    pairs = {
        "events executed": (executed, untraced_events
                            if untraced_events is not None else executed),
        "events pushed": (c["EventQueue.at"] + c["EventQueue.after"],
                          executed),
        "continuations": (trace.continuations(), executed),
        "cache probes": (c["Cluster.try_local"], probes),
        "read+write submits": (c["submit.read"] + c["submit.write"],
                               untraced.remote_misses),
        "writeback submits": (c["submit.writeback"], untraced.writebacks),
        "store evictions": (c["store_evictions"],
                            untraced.sparse_replacements),
        "stream ops": (c["stream.next"], ops + len(system.processors)),
    }
    return [f"traced {name} {a!r} != {b!r}" for name, (a, b) in pairs.items()
            if a != b]


def _traced_point(spec: PointSpec) -> Tuple[LayerTrace, DashSystem, SimStats,
                                             float]:
    workload = spec.workload_factory()
    trace = LayerTrace([type(workload)], [_entry_class(spec)])
    with trace:
        t0 = time.perf_counter()
        system = DashSystem(spec.config, workload)
        stats = system.run()
        wall = time.perf_counter() - t0
    return trace, system, stats, wall


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def trace(workload: Workload, seed: int) -> Tuple[Metrics, Checker, dict]:
    """One untraced and one traced pass: the per-layer metrics."""
    points = workload.points(seed)
    checker = Checker(load_expected(workload) if seed == 0 else None)
    jobs = usable_cpus() if workload.grid else 1

    # untraced pass (after a discarded warm-up)
    untraced: List[Optional[SimStats]]
    events_run: List[Optional[int]]
    if workload.grid:
        run_points(warmup_points(), jobs=jobs)
        untraced, report, untraced_wall, _ = _run_grid(points, jobs)
        _check_grid(workload, points, untraced, report, checker)
        walls = [o.wall or 0.0 for _, o in sorted(report.outcomes.items())]
        retries = sum(o.retries for o in report.outcomes.values())
        events_run = [None] * len(points)
    else:
        spec = points[0]
        DashSystem(spec.config, spec.workload_factory()).run(
            max_events=WARMUP_EVENTS)
        t0 = time.perf_counter()
        system = DashSystem(spec.config, spec.workload_factory())
        try:
            st, error = system.run(), None
        except Exception as exc:  # noqa: BLE001 - counted as failed
            st, error = None, _describe(exc)
        untraced_wall = time.perf_counter() - t0
        checker.point(spec.label, st, system=system, error=error)
        untraced, walls, retries = [st], [untraced_wall], 0
        events_run = [system.events.events_run]
        del system

    # traced pass, one point at a time in this process
    samples = []
    traced_s = 0.0
    for spec, ref, ref_events in zip(points, untraced, events_run):
        gc.collect()
        try:
            tr, system, st, wall = _traced_point(spec)
        except Exception as exc:  # noqa: BLE001 - counted as failed
            checker.point(spec.label, None, error="traced: " + _describe(exc))
            continue
        traced_s += wall
        extra = tuple(_exact_mismatches(tr, system, ref, ref_events)
                      if ref is not None else ())
        checker.point(spec.label, st, system=system, extra=extra)
        samples.append((tr, system, st))

    metrics, bases, shares = layer_metrics(samples)
    bases["sweep.parallel_eff"] = [sum(walls), jobs * untraced_wall]
    bases["trace.overhead"] = [traced_s, sum(walls)]
    metrics.update({
        "sweep.points": (len(points), "count"),
        "sweep.point_s_p50": (statistics.median(walls), "s"),
        "sweep.point_s_max": (max(walls), "s"),
        "sweep.parallel_eff": (_ratio(*bases["sweep.parallel_eff"]), "ratio"),
        "sweep.overhead_s": (max(0.0, untraced_wall - sum(walls) / jobs), "s"),
        "sweep.retries": (retries, "count"),
        "trace.overhead": (_ratio(*bases["trace.overhead"]), "x"),
    })
    record = {"layer_shares": shares, "ratio_bases": bases,
              "untraced_wall_s": untraced_wall, "traced_s": traced_s,
              "jobs": jobs,
              "calls": dict(sum((tr.calls for tr, _, _ in samples), Counter()))}
    return metrics, checker, record


def layer_metrics(samples) -> Tuple[Metrics, dict, dict]:
    """Per-layer metrics summed over traced ``(trace, system, stats)`` runs.

    Returns the metrics, the ``[numerator, denominator]`` base of every
    ratio, and each layer's share of the traced self time.
    """
    self_s = [sum(tr.self_s[i] for tr, _, _ in samples)
              for i in range(len(LAYERS))]

    def calls(cls, *names) -> int:
        return sum(tr.count(cls, *names) for tr, _, _ in samples)

    def counted(key) -> int:
        return sum(tr.calls[key] for tr, _, _ in samples)

    def stat(fn) -> float:
        return sum(fn(st) for _, _, st in samples)

    events = sum(sys.events.events_run for _, sys, _ in samples)
    refs = stat(_refs)
    probes = stat(lambda s: s.l1_hits + s.l2_hits + s.local_misses
                  + s.remote_misses)
    l1 = stat(lambda s: s.l1_hits)
    l2 = stat(lambda s: s.l2_hits)
    remote = stat(lambda s: s.remote_misses)
    busy = stat(lambda s: sum(p.busy for p in s.procs))
    stall = stat(lambda s: sum(p.stall for p in s.procs))
    sync = stat(lambda s: sum(p.sync for p in s.procs))
    allocs = sum(d.store.allocations
                 for _, sys, _ in samples for d in sys.directories)
    invals = calls(Cluster, "invalidate_block")
    submits = {k: counted("submit." + k)
               for k in ("read", "write", "writeback", "hint")}
    misses = submits["read"] + submits["write"]
    targets_calls = sum(tr.entry_calls("targets_sorted") for tr, _, _ in samples)
    evictions = counted("store_evictions")
    bases = {
        "events.per_ref": [events, refs],
        "processor.stall_frac": [stall, busy + stall + sync],
        "cluster.l1_hit_ratio": [l1, probes],
        "cluster.l2_hit_ratio": [l2, probes - l1],
        "cluster.inval_useful_ratio": [counted("inval_useful"), invals],
        "directory.events_per_miss": [
            sum(tr.continuations("directory") for tr, _, _ in samples), misses],
        "store.evict_per_alloc": [evictions, allocs],
        "scheme.inval_targets_mean": [counted("targets"), targets_calls],
        "network.msgs_per_miss": [stat(lambda s: s.total_messages), remote],
    }
    ratio = {name: _ratio(*nd) for name, nd in bases.items()}
    m: Metrics = {
        "events.pushes": (counted("EventQueue.at") + counted("EventQueue.after"),
                          "count"),
        "events.executed": (events, "count"),
        "events.per_ref": (ratio["events.per_ref"], "events/ref"),
        "events.self_s": (self_s[EVENTS], "s"),
        "processor.ops": (sum(p.ops_consumed for _, sys, _ in samples
                              for p in sys.processors), "count"),
        "processor.self_s": (self_s[PROCESSOR], "s"),
        "processor.stall_frac": (ratio["processor.stall_frac"], "ratio"),
        "apps.next_calls": (counted("stream.next"), "count"),
        "apps.self_s": (self_s[APPS], "s"),
        "cluster.try_local_calls": (calls(Cluster, "try_local"), "count"),
        "cluster.l1_hit_ratio": (ratio["cluster.l1_hit_ratio"], "ratio"),
        "cluster.l2_hit_ratio": (ratio["cluster.l2_hit_ratio"], "ratio"),
        "cluster.installs": (calls(Cluster, "install_from_directory"), "count"),
        "cluster.invalidate_calls": (invals, "count"),
        "cluster.inval_useful_ratio": (ratio["cluster.inval_useful_ratio"],
                                       "ratio"),
        "cluster.self_s": (self_s[CLUSTER], "s"),
        **{f"directory.submits.{k}": (v, "count") for k, v in submits.items()},
        "directory.events_per_miss": (ratio["directory.events_per_miss"],
                                      "events/miss"),
        "directory.busy_retries": (calls(DirectoryController, "_retry_later"),
                                   "count"),
        "directory.self_s": (self_s[DIRECTORY], "s"),
        "store.allocs": (allocs, "count"),
        "store.lookups": (calls(FullMapDirectory, *STORE_METHODS[:2])
                          + calls(SparseDirectory, *STORE_METHODS[:2]),
                          "count"),
        "store.evictions": (evictions, "count"),
        "store.evict_per_alloc": (ratio["store.evict_per_alloc"], "ratio"),
        "store.self_s": (self_s[STORE], "s"),
        "scheme.calls": (sum(tr.entry_calls() for tr, _, _ in samples),
                         "count"),
        "scheme.inval_targets_mean": (ratio["scheme.inval_targets_mean"],
                                      "targets"),
        "scheme.self_s": (self_s[SCHEME], "s"),
        "network.requests": (stat(lambda s: s.requests), "count"),
        "network.replies": (stat(lambda s: s.replies), "count"),
        "network.invals": (stat(lambda s: s.invalidations), "count"),
        "network.acks": (stat(lambda s: s.acknowledgements), "count"),
        "network.msgs_per_miss": (ratio["network.msgs_per_miss"], "msgs/miss"),
        "sync.calls": (calls(SyncManager, *SYNC_METHODS), "count"),
        "sync.barrier_waits": (stat(lambda s: s.barrier_waits), "count"),
        "sync.self_s": (self_s[SYNC], "s"),
    }
    total = sum(self_s)
    shares = {name: _ratio(self_s[i], total) for i, name in enumerate(LAYERS)}
    return m, bases, shares
