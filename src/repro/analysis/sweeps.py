"""Parameter-sweep runner: the experiment loop every study repeats.

The paper's evaluation is a grid of (application x scheme x directory
configuration) simulations; this module factors that loop out so
benchmarks, examples, and user studies share one implementation with
consistent result records.

Example::

    sweep = Sweep(
        base=MachineConfig(num_clusters=32),
        workload_factory=lambda: LUWorkload(32, matrix_n=48),
    )
    sweep.add_axis("scheme", ["full", "Dir3CV2", "Dir3B"])
    sweep.add_axis("sparse_size_factor", [None, 2.0, 1.0])
    results = sweep.run(jobs=4)
    print(results.table(["exec_time", "total_messages"]))

Execution goes through :func:`run_points`, which adds two orthogonal
accelerations to the serial loop while returning point-for-point
identical results:

* **parallelism** — ``jobs > 1`` runs the grid across forked worker
  processes under the supervised executor
  (:class:`~repro.analysis.supervisor.SupervisedRunner`: liveness
  monitoring, per-point timeouts, bounded retry of dead workers,
  results reassembled in grid order);
* **caching** — a :class:`~repro.analysis.cache.ResultCache` skips any
  point whose content-addressed key (config + workload identity + code
  fingerprint) already has a stored result.

Resilience knobs (``policy``, ``report``, ``manifest``) are documented
on :func:`run_points`.

The ``progress`` callback contract holds on every path: it is invoked
exactly once per *completed* point (simulated or cache-loaded), in
deterministic grid order, after the point's stats are final; when a
point raises, the callback has fired exactly for the contiguous prefix
of points before the first (grid-order) failure.
"""

from __future__ import annotations

import itertools
import os
import time
from dataclasses import dataclass
from pathlib import Path
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro.analysis.cache import ResultCache, point_key
from repro.analysis.report import format_table
from repro.analysis.supervisor import (
    ChaosError,
    SupervisedRunner,
    SupervisorPolicy,
    SweepManifest,
    SweepReport,
    fork_context,
)
from repro.machine.config import MachineConfig
from repro.machine.stats import STATS_SCHEMA, SimStats
from repro.machine.system import run_workload
from repro.obs.aggregate import PointTelemetry, SweepAggregator
from repro.obs.dashboard import SweepMonitor
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.trace.workload import Workload


def load_stats_dict(data: Mapping[str, Any]) -> Dict[str, Any]:
    """Normalize a persisted ``SimStats.to_dict()`` record to schema 2.

    Accepts both the original unversioned shape (schema 1, no ``schema``
    key) and the current one; rejects records declaring a *newer* schema
    than this build understands.  Returns a plain dict always carrying
    ``schema``, so downstream code can index uniformly.
    """
    schema = data.get("schema", 1)
    if not isinstance(schema, int) or schema < 1 or schema > STATS_SCHEMA:
        raise ValueError(
            f"unsupported stats schema {schema!r} "
            f"(this build reads <= {STATS_SCHEMA})"
        )
    out = {"schema": STATS_SCHEMA}
    out.update({k: v for k, v in data.items() if k != "schema"})
    return out


def load_results_dict(data: Mapping[str, Any]) -> Dict[str, Any]:
    """Normalize a ``results/*.json`` file body (schema 1 or 2).

    Version-1 files had no top-level ``schema`` header; version-2 files
    (written by ``benchmarks.common.save_results``) do.  The figure
    payload is returned unchanged either way, without the header.
    """
    schema = data.get("schema", 1)
    if not isinstance(schema, int) or schema < 1 or schema > STATS_SCHEMA:
        raise ValueError(
            f"unsupported results schema {schema!r} "
            f"(this build reads <= {STATS_SCHEMA})"
        )
    return {k: v for k, v in data.items() if k != "schema"}


@dataclass(frozen=True)
class SweepPoint:
    """One grid point: the config overrides applied and the stats measured."""

    overrides: Tuple[Tuple[str, Any], ...]
    stats: SimStats

    def override(self, name: str) -> Any:
        """The value this point used for the named axis."""
        for key, value in self.overrides:
            if key == name:
                return value
        raise KeyError(name)

    def metric(self, name: str) -> Any:
        """A statistic by attribute name (callables invoked, dict fallback)."""
        value = getattr(self.stats, name, None)
        if value is None:
            value = self.stats.to_dict().get(name)
        if callable(value):
            value = value()
        if value is None:
            raise KeyError(f"unknown metric {name!r}")
        return value


class SweepResults:
    """Ordered collection of sweep points with tabular access."""

    def __init__(self, axes: Sequence[str], points: List[SweepPoint]) -> None:
        self.axes = list(axes)
        self.points = points

    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self) -> Iterator[SweepPoint]:
        return iter(self.points)

    def filter(self, **criteria: object) -> "SweepResults":
        """Points whose overrides match all the given values."""
        kept = [
            p
            for p in self.points
            if all(p.override(k) == v for k, v in criteria.items())
        ]
        return SweepResults(self.axes, kept)

    def metric_by(self, axis: str, metric: str) -> Dict[Any, Any]:
        """Map one axis value -> metric (requires the axis to be unique)."""
        out: Dict[Any, Any] = {}
        for p in self.points:
            key = p.override(axis)
            if key in out:
                raise ValueError(
                    f"axis {axis!r} is not unique across points; filter first"
                )
            out[key] = p.metric(metric)
        return out

    def table(self, metrics: Sequence[str]) -> str:
        """Aligned text table: one row per point, axes then metrics."""
        headers = self.axes + list(metrics)
        rows = []
        for p in self.points:
            row: List[Any] = [p.override(a) for a in self.axes]
            row.extend(p.metric(m) for m in metrics)
            rows.append(row)
        return format_table(headers, rows)


@dataclass(frozen=True)
class PointSpec:
    """One schedulable simulation: a config, a workload recipe, run flags.

    ``workload_factory`` is called in whichever process executes the
    point (parent or forked worker), so workloads are built from the
    same recipe on every path and never cross a process boundary.
    ``label`` is observability-only (span annotation).
    """

    config: MachineConfig
    workload_factory: Callable[[], Workload]
    check: bool = False
    label: str = ""


def run_points(
    specs: Sequence[PointSpec],
    *,
    jobs: int = 1,
    cache: Optional[ResultCache] = None,
    progress: Optional[Callable[[int, SimStats], None]] = None,
    obs: Optional[Tracer] = None,
    policy: Optional[SupervisorPolicy] = None,
    report: Optional[SweepReport] = None,
    manifest: Optional[SweepManifest] = None,
    aggregate: Optional[SweepAggregator] = None,
    monitor: Optional[SweepMonitor] = None,
    checkpoint_dir: Optional[Path | str] = None,
    checkpoint_interval: Optional[int] = None,
) -> List[Optional[SimStats]]:
    """Execute point specs with parallelism, caching, and supervision.

    The shared engine behind :meth:`Sweep.run` and the benchmark runner
    (``benchmarks.common.run_grid``).  Returns stats in spec order,
    identical on every (jobs, cache) combination.  ``progress(i, stats)``
    follows the contract documented at module level.  ``obs`` emits one
    ``sweep.point`` span per completed point plus ``sweep_cache_hits`` /
    ``sweep_cache_misses`` counters through the declared registry names.

    ``aggregate`` (a :class:`~repro.obs.aggregate.SweepAggregator`)
    turns on cross-worker trace aggregation: every simulated point —
    serial or forked — runs under a fresh real tracer sized to
    ``aggregate.capacity``, and its captured
    :class:`~repro.obs.aggregate.PointTelemetry` is merged into the
    aggregator as results stream in.  The stats a point returns (and
    caches) are byte-identical with or without aggregation: workers
    strip the metrics reference before shipping, so the telemetry is
    the only channel the observability data travels on.  ``monitor``
    (a :class:`~repro.obs.dashboard.SweepMonitor`, e.g. the live
    dashboard) receives begin/point lifecycle/tick/finish callbacks
    from the parent process on every execution path.

    Resilience: the parallel path always runs under
    :class:`~repro.analysis.supervisor.SupervisedRunner` — a worker
    death can no longer hang the sweep; the point is retried with
    backoff.  Passing an explicit ``policy`` additionally enables
    per-point timeouts, keep-going quarantine, chaos injection, and
    forces the supervised (forked) path even at ``jobs=1`` so timeouts
    can be enforced.  Under ``policy.keep_going`` a quarantined point's
    slot in the returned list is ``None`` (and ``progress`` never fires
    for it; later points still deliver in order).  ``report``
    accumulates per-point :class:`~repro.analysis.supervisor.
    PointOutcome` records; ``manifest`` persists per-point status for
    ``repro sweep --resume``.

    ``checkpoint_dir`` + ``checkpoint_interval`` turn on crash-
    consistent per-point snapshots on the supervised forked path:
    workers write ``<dir>/pointNNNNN.ckpt`` every
    ``checkpoint_interval`` simulated events, a killed or timed-out
    point *resumes* from its last snapshot instead of restarting, and
    the manifest records such points as ``partial`` so a later
    ``--resume`` continues them mid-run too.  Results stay
    byte-identical either way (``docs/robustness.md``).  The fork-free
    serial fallback ignores checkpointing — it has no worker deaths to
    recover from.
    """
    obs = obs if obs is not None else NULL_TRACER
    supervised = policy is not None
    pol = policy if policy is not None else SupervisorPolicy()
    n = len(specs)
    stats_by_index: Dict[int, SimStats] = {}
    skipped: set = set()
    cached = set()
    keys: Dict[int, str] = {}
    if cache is not None or manifest is not None:
        for i, spec in enumerate(specs):
            keys[i] = point_key(
                spec.config, spec.workload_factory(), check=spec.check
            )
    if monitor is not None:
        monitor.begin(total=n, jobs=max(1, jobs))
    if cache is not None:
        for i in range(n):
            hit = cache.get(keys[i])
            if hit is not None:
                stats_by_index[i] = hit
                cached.add(i)
                if report is not None:
                    report.mark_cached(i, specs[i].label)
                if manifest is not None:
                    manifest.statuses[i] = "cached"
                if monitor is not None:
                    monitor.point_cached(i, specs[i].label)
    if manifest is not None:
        for i in range(n):
            if i not in cached:
                manifest.statuses[i] = "pending"
        manifest.save()
    if obs.enabled:
        obs.metrics.counter("sweep_cache_hits").inc(len(cached))
        obs.metrics.counter("sweep_cache_misses").inc(n - len(cached))
    misses = [i for i in range(n) if i not in cached]

    next_i = 0

    def _deliver_prefix() -> None:
        """Fire progress for the contiguous resolved prefix, in order.

        Quarantined points resolve without stats: they are skipped (no
        progress call) so delivery of later completed points continues.
        """
        nonlocal next_i
        while next_i < n and (next_i in stats_by_index or next_i in skipped):
            if next_i in stats_by_index and progress is not None:
                progress(next_i, stats_by_index[next_i])
            next_i += 1

    def _record(i: int, stats: SimStats, wall: float) -> None:
        stats_by_index[i] = stats
        if cache is not None:
            cache.put(keys[i], stats)
        if manifest is not None:
            manifest.mark(i, "completed")
        if obs.enabled:
            obs.emit(
                "sweep.point",
                ts=obs.now(),
                dur=wall,
                comp="sweep",
                args={"index": i, "cached": False, "label": specs[i].label},
            )
        _deliver_prefix()

    def _quarantine(i: int, exc: BaseException) -> None:
        skipped.add(i)
        if manifest is not None:
            manifest.mark(i, "quarantined")
        _deliver_prefix()

    if obs.enabled:
        for i in sorted(cached):
            obs.emit(
                "sweep.point",
                ts=obs.now(),
                dur=0.0,
                comp="sweep",
                args={"index": i, "cached": True, "label": specs[i].label},
            )

    def _telemetry(point: PointTelemetry) -> None:
        if aggregate is not None:
            aggregate.add(point)
        if monitor is not None:
            monitor.telemetry(point)

    fork_ok = fork_context() is not None
    use_workers = fork_ok and misses and (
        (jobs > 1 and len(misses) > 1) or supervised
    )
    if pol.chaos is not None and not use_workers and misses:
        raise RuntimeError("chaos injection requires fork-based workers")
    try:
        if use_workers:
            if checkpoint_dir is not None:
                Path(checkpoint_dir).mkdir(parents=True, exist_ok=True)
            runner = SupervisedRunner(
                max(1, min(jobs, len(misses))), pol, obs=obs,
                telemetry_capacity=(
                    aggregate.capacity if aggregate is not None else None
                ),
                checkpoint_dir=checkpoint_dir,
                checkpoint_interval=checkpoint_interval,
            )

            def _partial(i: int) -> None:
                if manifest is not None:
                    manifest.mark(i, "partial")

            _deliver_prefix()
            runner.run(
                specs, misses, on_complete=_record,
                on_quarantine=_quarantine, report=report,
                on_telemetry=_telemetry if aggregate is not None else None,
                monitor=monitor,
                on_partial=_partial if manifest is not None else None,
            )
        else:
            _deliver_prefix()
            for i in misses:
                _run_point_serial(
                    specs[i], i, pol if supervised else None,
                    _record, _quarantine, report, obs,
                    aggregate=aggregate, monitor=monitor,
                )
    finally:
        if monitor is not None:
            monitor.finish()
    assert next_i == n, "internal error: sweep points missing"
    return [stats_by_index.get(i) for i in range(n)]


def _run_point_serial(
    spec: PointSpec,
    i: int,
    policy: Optional[SupervisorPolicy],
    record: Callable[[int, SimStats, float], None],
    quarantine: Callable[[int, BaseException], None],
    report: Optional[SweepReport],
    obs: Tracer,
    *,
    aggregate: Optional[SweepAggregator] = None,
    monitor: Optional[SweepMonitor] = None,
) -> None:
    """One in-process point with the serial subset of the retry policy.

    The fork-free fallback cannot preempt a hung simulation, so
    ``timeout`` and ``chaos`` do not apply; bounded retry of exceptions
    (when ``retry_errors``) and keep-going quarantine still do.  With
    ``aggregate``, the point runs under a fresh per-attempt tracer and
    its telemetry is merged exactly as the forked path does it — same
    capacity, same metrics stripping, same stats bytes.
    """
    attempt = 0
    while True:
        attempt += 1
        try:
            if monitor is not None:
                monitor.point_started(i, spec.label, os.getpid())
            tracer: Optional[Tracer] = None
            if aggregate is not None:
                tracer = Tracer(aggregate.capacity)
            t0 = time.perf_counter()
            stats = run_workload(
                spec.config, spec.workload_factory(), check=spec.check,
                obs=tracer,
            )
            wall = time.perf_counter() - t0
            if tracer is not None:
                stats.metrics = None  # metrics travel in the telemetry
                telemetry = PointTelemetry.capture(
                    tracer, index=i, label=spec.label, wall_s=wall
                )
                if aggregate is not None:
                    aggregate.add(telemetry)
                if monitor is not None:
                    monitor.telemetry(telemetry)
            if report is not None:
                report.mark_completed(i, spec.label, wall)
            if monitor is not None:
                monitor.point_done(i, spec.label, wall)
            record(i, stats, wall)
            return
        except Exception as exc:
            if policy is not None and attempt <= policy.max_retries and (
                policy.retry_errors or isinstance(exc, ChaosError)
            ):
                if report is not None:
                    report.mark_retry(i, "error", spec.label)
                if obs.enabled:
                    obs.metrics.counter("sweep_retries").inc()
                    obs.emit(
                        "sweep.retry", ts=obs.now(), comp="sweep",
                        args={"index": i, "kind": "error",
                              "attempt": attempt, "label": spec.label},
                    )
                if monitor is not None:
                    monitor.point_retry(i, spec.label, "error")
                time.sleep(policy.backoff * (2 ** (attempt - 1)))
                continue
            if policy is not None and policy.keep_going:
                if report is not None:
                    report.mark_quarantined(i, exc, label=spec.label)
                if obs.enabled:
                    obs.metrics.counter("sweep_quarantined").inc()
                if monitor is not None:
                    monitor.point_quarantined(i, spec.label)
                quarantine(i, exc)
                return
            if report is not None:
                report.mark_failed(i, exc, spec.label)
            raise


class Sweep:
    """A cartesian grid of MachineConfig overrides, run over one workload."""

    def __init__(
        self,
        base: MachineConfig,
        workload_factory: Callable[[], Workload],
        *,
        check_coherence: bool = False,
    ) -> None:
        self.base = base
        self.workload_factory = workload_factory
        self.check_coherence = check_coherence
        self._axes: List[Tuple[str, List[Any]]] = []

    def add_axis(self, name: str, values: Iterable[Any]) -> "Sweep":
        """Add a config field to sweep over; returns self for chaining."""
        values = list(values)
        if not values:
            raise ValueError(f"axis {name!r} has no values")
        if name in (n for n, _ in self._axes):
            raise ValueError(f"axis {name!r} already added")
        # fail fast on typos: the override must be a real config field
        self.base.with_(**{name: values[0]})
        self._axes.append((name, values))
        return self

    @property
    def axis_names(self) -> List[str]:
        return [name for name, _ in self._axes]

    def grid(self) -> List[Dict[str, Any]]:
        """The override mapping of every grid point, in deterministic order.

        Axes vary slowest-first in the order they were added (the
        cartesian-product order the serial loop has always used); this
        order defines shard assignment, progress delivery, and the
        ordering of :attr:`SweepResults.points`.
        """
        if not self._axes:
            raise ValueError("add at least one axis before running")
        names = self.axis_names
        return [
            dict(zip(names, combo))
            for combo in itertools.product(*(vals for _, vals in self._axes))
        ]

    def specs(self) -> List[PointSpec]:
        """One :class:`PointSpec` per grid point, in deterministic order.

        Exposed so callers (the CLI's resume manifest, tests) can derive
        content-addressed point keys without running the sweep.
        """
        return [
            PointSpec(
                config=self.base.with_(**overrides),
                workload_factory=self.workload_factory,
                check=self.check_coherence,
                label=",".join(f"{k}={v}" for k, v in overrides.items()),
            )
            for overrides in self.grid()
        ]

    def run(
        self,
        *,
        jobs: int = 1,
        cache: Optional[ResultCache] = None,
        progress: Optional[Callable[[Mapping[str, Any], SimStats], None]] = None,
        obs: Optional[Tracer] = None,
        policy: Optional[SupervisorPolicy] = None,
        report: Optional[SweepReport] = None,
        manifest: Optional[SweepManifest] = None,
        aggregate: Optional[SweepAggregator] = None,
        monitor: Optional[SweepMonitor] = None,
        checkpoint_dir: Optional[Path | str] = None,
        checkpoint_interval: Optional[int] = None,
    ) -> SweepResults:
        """Run every grid point; optionally parallel, cached, and traced.

        ``jobs`` — fork this many worker processes (1 = in-process
        serial; results are identical either way).  ``cache`` — reuse
        and persist per-point results by content hash.  ``progress`` —
        called exactly once per completed point, in deterministic grid
        order, with the point's overrides and final stats; the contract
        holds under ``jobs > 1`` and, on failure, covers exactly the
        points before the first grid-order error.  ``obs`` — a tracer
        receiving per-point ``sweep.point`` spans and cache counters.
        ``policy``/``report``/``manifest`` — supervision knobs, see
        :func:`run_points`; under ``policy.keep_going`` quarantined
        points are simply absent from the returned results (the
        ``report`` records why).  ``aggregate``/``monitor`` — sweep
        observability (merged per-point telemetry, live dashboard), see
        :func:`run_points`.  ``checkpoint_dir``/``checkpoint_interval``
        — crash-consistent per-point snapshots with mid-run resume, see
        :func:`run_points`.
        """
        grid = self.grid()
        specs = self.specs()
        wrapped = None
        if progress is not None:
            wrapped = lambda i, stats: progress(grid[i], stats)  # noqa: E731
        stats_list = run_points(
            specs, jobs=jobs, cache=cache, progress=wrapped, obs=obs,
            policy=policy, report=report, manifest=manifest,
            aggregate=aggregate, monitor=monitor,
            checkpoint_dir=checkpoint_dir,
            checkpoint_interval=checkpoint_interval,
        )
        points = [
            SweepPoint(tuple(overrides.items()), stats)
            for overrides, stats in zip(grid, stats_list)
            if stats is not None
        ]
        return SweepResults(self.axis_names, points)
