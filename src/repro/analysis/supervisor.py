"""Supervised sweep execution: liveness, timeouts, retries, and chaos.

The parallel runner in :mod:`repro.analysis.sweeps` forks workers and
streams results back over a queue.  That is fast, but fragile: a worker
that is OOM-killed, segfaults, or wedges on a pathological configuration
never enqueues anything, and a parent blocked unconditionally on
``queue.get()`` waits forever.  Long unattended sweeps — every figure,
ablation, and CI gate — need the harness itself to survive partial
failure, the same way PR 1 taught the *simulated machine* to survive
dropped and corrupted messages.

This module provides that layer:

* :class:`SupervisedRunner` — a supervisor loop that dispatches points
  to forked workers over per-worker pipes, monitors liveness through
  process sentinels, exit codes, and per-point start heartbeats, and
  never blocks without a timeout;
* per-point **wall-clock timeouts** — a hung worker is SIGKILLed and its
  point rescheduled;
* **bounded retry with exponential backoff** for points whose worker
  died (always) and for points that raised (when
  :attr:`SupervisorPolicy.retry_errors` is set, as the chaos harness
  does);
* **quarantine** under :attr:`SupervisorPolicy.keep_going` — a poison
  point that exhausts its retries is recorded and skipped so the rest
  of the sweep still completes;
* :class:`SweepReport` — the structured per-point outcome record
  (completed / cached / retried / quarantined / timed-out);
* :class:`SweepManifest` — a per-sweep file (keyed by the existing
  content-addressed ``point_key``) that lets ``repro sweep --resume``
  execute only the points a previous interrupted run did not finish;
* graceful **SIGINT/SIGTERM** handling — in-flight results are drained
  (and therefore flushed to the :class:`~repro.analysis.cache.
  ResultCache` by the caller's completion hook) before
  :class:`SweepInterrupted` is raised;
* :class:`ChaosPlan` — the fault injector behind ``repro sweep
  --chaos``: seeded, deterministic per point, SIGKILLing workers and
  injecting hung or failing points so the recovery paths above are
  exercised end to end.  Because every simulation is deterministic,
  results after recovery are byte-identical to a serial uncached run.

Determinism: supervision changes *scheduling only*.  Each point is
simulated from a freshly built workload in whichever worker runs it, so
the stats are a pure function of the point spec — retries, respawns,
and dynamic dispatch cannot change results, only wall-clock.
"""

from __future__ import annotations

import hashlib
import heapq
import json
import os
import random
import signal
import threading
import time
from collections import deque
from dataclasses import dataclass
from multiprocessing import connection
from pathlib import Path
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.machine.stats import SimStats
from repro.obs.aggregate import PointTelemetry
from repro.obs.dashboard import SweepMonitor
from repro.obs.tracer import NULL_TRACER, Tracer

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    import multiprocessing

    from repro.analysis.sweeps import PointSpec

#: version of the SweepReport / SweepManifest on-disk shapes
REPORT_SCHEMA = 1


def fork_context() -> Optional["multiprocessing.context.BaseContext"]:
    """The fork multiprocessing context, or None where unsupported.

    Fork is required (not merely preferred) because point specs carry
    arbitrary callables — lambdas, closures over configs — which spawn
    would have to pickle.  On platforms without fork the sweep engine
    degrades to the serial path, which is always correct.
    """
    import multiprocessing

    if "fork" not in multiprocessing.get_all_start_methods():
        return None
    return multiprocessing.get_context("fork")


class WorkerDied(RuntimeError):
    """A forked sweep worker exited without reporting its point."""


class PointTimeout(RuntimeError):
    """A sweep point exceeded the per-point wall-clock timeout."""


class ChaosError(RuntimeError):
    """A failure injected by :class:`ChaosPlan` (always retryable)."""


class SweepInterrupted(KeyboardInterrupt):
    """SIGINT/SIGTERM stopped a supervised sweep after flushing results.

    Subclasses :class:`KeyboardInterrupt` so generic Ctrl-C handling
    (shells, pytest, the CLI) keeps working; carries the signal number
    and how many points had completed when the stop was honored.
    """

    def __init__(self, signum: int, completed: int) -> None:
        super().__init__(f"sweep interrupted by signal {signum} "
                         f"({completed} points completed and flushed)")
        self.signum = signum
        self.completed = completed


@dataclass(frozen=True)
class ChaosPlan:
    """Deterministic per-point fault injection for the chaos harness.

    Each grid point draws one action from a seeded RNG keyed by
    ``(seed, index)`` — ``kill`` (SIGKILL the worker mid-point),
    ``hang`` (sleep so the per-point timeout trips), ``fail`` (raise
    :class:`ChaosError`), ``midkill`` (SIGKILL the worker right after
    its first periodic checkpoint lands on disk, so the retry *resumes*
    instead of restarting), or nothing.  With ``once=True`` (the
    default) a fault fires only on the point's *first* attempt, so
    bounded retry always converges and final results stay
    byte-identical to a fault-free run.  ``actions`` pins explicit
    ``index -> action`` choices for targeted tests.
    """

    seed: int = 0
    kill: float = 0.2
    hang: float = 0.1
    fail: float = 0.2
    once: bool = True
    hang_seconds: float = 3600.0
    actions: Optional[Dict[int, str]] = None
    midkill: float = 0.0

    def action(self, index: int) -> Optional[str]:
        """The fault drawn for grid point ``index`` (None = no fault)."""
        if self.actions is not None:
            return self.actions.get(index)
        draw = random.Random(f"chaos:{self.seed}:{index}").random()
        if draw < self.kill:
            return "kill"
        if draw < self.kill + self.hang:
            return "hang"
        if draw < self.kill + self.hang + self.fail:
            return "fail"
        if draw < self.kill + self.hang + self.fail + self.midkill:
            return "midkill"
        return None

    def midkill_armed(self, index: int, attempt: int) -> bool:
        """Whether this attempt should die after its first checkpoint.

        ``midkill`` is not fired by :meth:`strike` — it has to wait for
        a snapshot to exist, so the worker arms it through the
        :meth:`~repro.machine.system.DashSystem.run` ``on_checkpoint``
        hook instead.
        """
        if attempt > 1 and self.once:
            return False
        return self.action(index) == "midkill"

    def strike(self, index: int, attempt: int) -> None:
        """Inject this point's fault (worker side); no-op when clean.

        Called by the worker immediately before simulating.  ``kill``
        SIGKILLs the worker process itself — exactly what an OOM kill
        looks like to the parent; ``hang`` sleeps long enough for the
        supervisor's timeout to reap the worker; ``fail`` raises
        :class:`ChaosError`, which the supervisor always retries.
        """
        if attempt > 1 and self.once:
            return
        action = self.action(index)
        if action == "kill":
            os.kill(os.getpid(), signal.SIGKILL)
        elif action == "hang":
            time.sleep(self.hang_seconds)
        elif action == "fail":
            raise ChaosError(
                f"chaos-injected failure at point {index} (attempt {attempt})"
            )


@dataclass(frozen=True)
class SupervisorPolicy:
    """How a supervised sweep reacts to failure.

    ``timeout`` — per-point wall-clock seconds before the worker is
    SIGKILLed and the point rescheduled (None disables).
    ``max_retries`` — failed attempts a point may accrue before it is
    permanent.  ``retry_errors`` — also retry clean exceptions (worker
    deaths and timeouts are always retried; simulator exceptions are
    deterministic, so retrying them is only useful under chaos).
    ``backoff`` — base of the exponential retry delay
    (``backoff * 2**(attempt-1)`` seconds).  ``keep_going`` — quarantine
    permanently failed points and finish the sweep instead of raising.
    ``tick`` — supervisor poll interval (liveness/timeout resolution).
    ``chaos`` — optional fault injector for the chaos harness.
    """

    timeout: Optional[float] = None
    max_retries: int = 2
    retry_errors: bool = False
    backoff: float = 0.05
    keep_going: bool = False
    tick: float = 0.2
    chaos: Optional[ChaosPlan] = None

    def retryable(self, kind: str) -> bool:
        """Whether a failed attempt of this ``kind`` may be retried."""
        return kind in ("death", "timeout") or self.retry_errors


@dataclass
class PointOutcome:
    """The fate of one grid point in a supervised sweep."""

    index: int
    label: str = ""
    status: str = "pending"
    attempts: int = 0
    retries: int = 0
    error: Optional[str] = None
    wall: Optional[float] = None
    #: a retry continued this point from a mid-run checkpoint instead of
    #: restarting it, saving ``events_saved`` already-simulated events
    resumed: bool = False
    events_saved: int = 0

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe record for :meth:`SweepReport.to_dict`."""
        return {
            "index": self.index,
            "label": self.label,
            "status": self.status,
            "attempts": self.attempts,
            "retries": self.retries,
            "error": self.error,
            "wall": self.wall,
            "resumed": self.resumed,
            "events_saved": self.events_saved,
        }


class SweepReport:
    """Structured per-point outcome record of a supervised sweep.

    Statuses: ``completed`` (simulated), ``cached`` (served by the
    result cache), ``quarantined`` (exhausted retries under keep-going),
    ``timed-out`` (quarantined because every attempt hit the timeout),
    ``failed`` (permanent failure in fail-fast mode), ``skipped``
    (never started because an earlier point failed fast).
    """

    def __init__(self) -> None:
        self.outcomes: Dict[int, PointOutcome] = {}
        self.interrupted = False

    def outcome(self, index: int, label: str = "") -> PointOutcome:
        """The (created-on-demand) outcome record for one point."""
        out = self.outcomes.get(index)
        if out is None:
            out = self.outcomes[index] = PointOutcome(index=index, label=label)
        if label and not out.label:
            out.label = label
        return out

    def mark_cached(self, index: int, label: str = "") -> None:
        """Point served from the result cache (no execution)."""
        self.outcome(index, label).status = "cached"

    def mark_completed(
        self, index: int, label: str = "", wall: Optional[float] = None
    ) -> None:
        """Point simulated successfully (possibly after retries)."""
        out = self.outcome(index, label)
        out.status = "completed"
        out.attempts += 1
        out.wall = wall

    def mark_retry(self, index: int, kind: str, label: str = "") -> None:
        """One failed attempt was rescheduled (``kind``: death/timeout/error)."""
        out = self.outcome(index, label)
        out.attempts += 1
        out.retries += 1

    def mark_quarantined(
        self, index: int, error: BaseException, *,
        timed_out: bool = False, label: str = "",
    ) -> None:
        """Point permanently failed under keep-going and was skipped."""
        out = self.outcome(index, label)
        out.status = "timed-out" if timed_out else "quarantined"
        out.attempts += 1
        out.error = f"{type(error).__name__}: {error}"

    def mark_failed(
        self, index: int, error: BaseException, label: str = ""
    ) -> None:
        """Point permanently failed in fail-fast mode (sweep will raise)."""
        out = self.outcome(index, label)
        out.status = "failed"
        out.attempts += 1
        out.error = f"{type(error).__name__}: {error}"

    def mark_skipped(self, index: int, label: str = "") -> None:
        """Point abandoned unstarted because the sweep failed fast."""
        self.outcome(index, label).status = "skipped"

    def mark_resumed(
        self, index: int, events_saved: int, label: str = ""
    ) -> None:
        """An attempt continued from a checkpoint, skipping re-simulation.

        ``events_saved`` is the event count the restored snapshot had
        already executed — work the resumed attempt did *not* redo.
        """
        out = self.outcome(index, label)
        out.resumed = True
        out.events_saved += events_saved

    def counts(self) -> Dict[str, int]:
        """Aggregate status counts plus retry/resume totals."""
        out = {
            "completed": 0, "cached": 0, "quarantined": 0, "timed-out": 0,
            "failed": 0, "skipped": 0, "pending": 0, "retries": 0,
            "resumed_from_checkpoint": 0, "events_saved": 0,
        }
        for o in self.outcomes.values():
            out[o.status] = out.get(o.status, 0) + 1
            out["retries"] += o.retries
            if o.resumed:
                out["resumed_from_checkpoint"] += 1
            out["events_saved"] += o.events_saved
        return out

    @property
    def quarantined(self) -> List[PointOutcome]:
        """Outcomes that were quarantined or timed out, in grid order."""
        return [
            o for _, o in sorted(self.outcomes.items())
            if o.status in ("quarantined", "timed-out")
        ]

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe report: schema header, counts, per-point outcomes."""
        return {
            "schema": REPORT_SCHEMA,
            "interrupted": self.interrupted,
            "counts": self.counts(),
            "points": [o.to_dict() for _, o in sorted(self.outcomes.items())],
        }

    def save(self, path: Path | str) -> Path:
        """Write the report as JSON; returns the path."""
        path = Path(path)
        path.write_text(json.dumps(self.to_dict(), indent=2, sort_keys=True)
                        + "\n")
        return path

    def summary(self) -> str:
        """One-line human summary for the CLI and benchmark runners."""
        c = self.counts()
        parts = [f"{c['completed']} completed"]
        if c["cached"]:
            parts.append(f"{c['cached']} cached")
        if c["retries"]:
            parts.append(f"{c['retries']} retries")
        if c["resumed_from_checkpoint"]:
            parts.append(
                f"{c['resumed_from_checkpoint']} resumed from checkpoint "
                f"({c['events_saved']} events saved)"
            )
        if c["timed-out"]:
            parts.append(f"{c['timed-out']} timed-out")
        if c["quarantined"]:
            parts.append(f"{c['quarantined']} quarantined")
        if c["failed"]:
            parts.append(f"{c['failed']} failed")
        if c["skipped"]:
            parts.append(f"{c['skipped']} skipped")
        if self.interrupted:
            parts.append("interrupted")
        return "sweep report: " + ", ".join(parts)


class SweepManifest:
    """Per-sweep progress file enabling ``repro sweep --resume``.

    A sweep's identity is the hash of its ordered content-addressed
    point keys (the same ``point_key`` the result cache uses), so the
    manifest lives beside the cache (``<cache-root>/manifests/``) and a
    rerun of the *same* grid maps to the same file.  The runner marks
    each point as it resolves and rewrites the file atomically, so an
    interrupted sweep leaves an accurate record; on resume, points whose
    status is ``completed``/``cached`` are exactly the ones the cache
    will serve without simulation.
    """

    def __init__(
        self, path: Path, sweep_key: str,
        keys: Sequence[str], labels: Sequence[str],
        statuses: Optional[Dict[int, str]] = None,
    ) -> None:
        self.path = Path(path)
        self.sweep_key = sweep_key
        self.keys = list(keys)
        self.labels = list(labels)
        self.statuses: Dict[int, str] = dict(statuses or {})

    @staticmethod
    def key_for(keys: Sequence[str]) -> str:
        """The sweep identity: a digest over the ordered point keys."""
        digest = hashlib.sha256()
        for key in keys:
            digest.update(key.encode())
            digest.update(b"\n")
        return digest.hexdigest()

    @classmethod
    def for_sweep(
        cls, root: Path | str, keys: Sequence[str], labels: Sequence[str]
    ) -> "SweepManifest":
        """The manifest for this grid under ``root``, loading any prior state.

        A prior file (from an interrupted run of the identical grid)
        contributes its per-point statuses; a fresh grid starts all
        ``pending``.
        """
        sweep_key = cls.key_for(keys)
        path = Path(root) / "manifests" / f"{sweep_key}.json"
        statuses: Dict[int, str] = {}
        try:
            record = json.loads(path.read_text())
            if (record.get("schema") == REPORT_SCHEMA
                    and record.get("sweep_key") == sweep_key):
                for entry in record.get("points", []):
                    statuses[int(entry["index"])] = str(entry["status"])
        except (OSError, ValueError, KeyError, TypeError):
            statuses = {}
        return cls(path, sweep_key, keys, labels, statuses)

    def done_indices(self) -> List[int]:
        """Points a previous run resolved (completed or cache-served)."""
        return sorted(
            i for i, s in self.statuses.items() if s in ("completed", "cached")
        )

    def partial_indices(self) -> List[int]:
        """Points whose worker died/timed out with a checkpoint on disk.

        These re-execute on resume, but the worker restores the saved
        snapshot and continues mid-run instead of restarting the point.
        """
        return sorted(
            i for i, s in self.statuses.items() if s == "partial"
        )

    def mark(self, index: int, status: str) -> None:
        """Record one point's status and persist the manifest atomically."""
        self.statuses[index] = status
        self.save()

    def save(self) -> Path:
        """Atomically rewrite the manifest file; returns its path."""
        self.path.parent.mkdir(parents=True, exist_ok=True)
        record = {
            "schema": REPORT_SCHEMA,
            "sweep_key": self.sweep_key,
            "points": [
                {
                    "index": i,
                    "label": self.labels[i] if i < len(self.labels) else "",
                    "key": self.keys[i],
                    "status": self.statuses.get(i, "pending"),
                }
                for i in range(len(self.keys))
            ],
        }
        tmp = self.path.with_suffix(".json.tmp")
        tmp.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
        os.replace(tmp, self.path)
        return self.path


def checkpoint_file(checkpoint_dir: Path | str, index: int) -> Path:
    """The per-point snapshot path inside a sweep's checkpoint directory."""
    return Path(checkpoint_dir) / f"point{index:05d}.ckpt"


def _supervised_worker(
    specs: Sequence["PointSpec"],
    conn: "connection.Connection",
    chaos: Optional[ChaosPlan],
    telemetry_capacity: Optional[int] = None,
    checkpoint_dir: Optional[str] = None,
    checkpoint_interval: Optional[int] = None,
) -> None:
    """Forked worker loop: receive ``(index, attempt)`` tasks, stream results.

    Protocol (worker -> parent): ``("start", idx, attempt)`` heartbeat
    before simulating, then ``("done", idx, attempt, stats, wall,
    telemetry, ckpt_info)`` or ``("fail", idx, attempt, exc)``.  A clean
    exception keeps the worker alive for its next task;
    ``KeyboardInterrupt``/``SystemExit`` are *not* swallowed — SIGINT is
    restored to its default disposition so Ctrl-C is handled once, by
    the parent's supervisor loop.

    With ``telemetry_capacity`` set (sweep aggregation on), each point
    runs under a fresh real :class:`~repro.obs.tracer.Tracer` and its
    :class:`~repro.obs.aggregate.PointTelemetry` rides the ``done``
    message.  The shipped ``SimStats`` has its metrics reference
    stripped first: metrics travel in the telemetry, and the stats stay
    byte-identical to an untraced run (the zero-cost guarantee holds
    through the pipe, the result cache, and the results table).

    With ``checkpoint_dir`` + ``checkpoint_interval`` set, each point
    writes a crash-consistent snapshot every ``checkpoint_interval``
    simulated events, and an attempt that finds a snapshot from a
    previous (killed or timed-out) attempt restores it and continues
    mid-run — re-simulating strictly fewer events, with byte-identical
    results (the determinism contract in ``docs/robustness.md``).  A
    snapshot that fails to load (torn write, version skew) is discarded
    along with the half-restored machine, and the point restarts from
    scratch.  ``ckpt_info`` on the ``done`` message reports
    ``{"resumed": bool, "events_saved": int}`` (None when checkpointing
    is off).  The chaos ``midkill`` action SIGKILLs the worker right
    after its first snapshot lands, guaranteeing the retry exercises
    the resume path.
    """
    from repro.machine.checkpoint import CheckpointError, load_checkpoint
    from repro.machine.system import DashSystem

    # restore default dispositions: the fork inherits the parent's
    # supervisor handlers, which merely set a flag — a worker keeping
    # them would ignore both Ctrl-C and the parent's terminate()
    signal.signal(signal.SIGINT, signal.SIG_DFL)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    checkpointing = (
        checkpoint_dir is not None and checkpoint_interval is not None
    )
    while True:
        try:
            task = conn.recv()
        except (EOFError, OSError):
            return
        if task is None:
            return
        idx, attempt = task
        spec = specs[idx]
        try:
            conn.send(("start", idx, attempt))
            if chaos is not None:
                chaos.strike(idx, attempt)
            tracer: Optional[Tracer] = None
            if telemetry_capacity is not None:
                tracer = Tracer(telemetry_capacity)
            ckpt_path: Optional[str] = None
            resumed = False
            events_saved = 0
            system: Optional[DashSystem] = None
            if checkpointing:
                assert checkpoint_dir is not None
                ckpt_path = str(checkpoint_file(checkpoint_dir, idx))
                if os.path.exists(ckpt_path):
                    try:
                        ckpt = load_checkpoint(ckpt_path)
                        system = DashSystem(
                            spec.config, spec.workload_factory(), obs=tracer
                        )
                        system.restore(ckpt)
                        resumed = True
                        # events the snapshot had already executed: work
                        # this attempt will NOT re-simulate
                        events_saved = system.events.events_run
                    except CheckpointError:
                        # restore mutates progressively — a failed load
                        # leaves a half-restored machine; discard it and
                        # start the point from scratch
                        system = None
            if system is None:
                system = DashSystem(
                    spec.config, spec.workload_factory(), obs=tracer
                )
            on_checkpoint = None
            if chaos is not None and chaos.midkill_armed(idx, attempt):
                if checkpointing:
                    def on_checkpoint(_ckpt: Any) -> None:
                        # die only once a resumable snapshot is on disk
                        os.kill(os.getpid(), signal.SIGKILL)
                else:  # no snapshots to wait for: degenerate to "kill"
                    os.kill(os.getpid(), signal.SIGKILL)
            t0 = time.perf_counter()
            stats = system.run(
                checkpoint_path=ckpt_path,
                checkpoint_interval=(
                    checkpoint_interval if checkpointing else None
                ),
                on_checkpoint=on_checkpoint,
            )
            if spec.check:
                system.check_coherence()
            wall = time.perf_counter() - t0
            telemetry: Optional[PointTelemetry] = None
            if tracer is not None:
                stats.metrics = None  # metrics ship in the telemetry
                telemetry = PointTelemetry.capture(
                    tracer, index=idx, label=spec.label, wall_s=wall
                )
            ckpt_info: Optional[Dict[str, Any]] = None
            if checkpointing:
                ckpt_info = {"resumed": resumed, "events_saved": events_saved}
            conn.send(
                ("done", idx, attempt, stats, wall, telemetry, ckpt_info)
            )
        except Exception as exc:  # noqa: BLE001 - relayed to the parent
            import pickle

            try:
                pickle.dumps(exc)
            except Exception:
                exc = RuntimeError(f"{type(exc).__name__}: {exc}")
            try:
                conn.send(("fail", idx, attempt, exc))
            except (BrokenPipeError, OSError):
                return


class _WorkerHandle:
    """Parent-side bookkeeping for one live worker process."""

    __slots__ = ("proc", "conn", "current", "attempt", "started_at")

    def __init__(self, proc: Any, conn: "connection.Connection") -> None:
        self.proc = proc
        self.conn = conn
        self.current: Optional[int] = None
        self.attempt = 0
        self.started_at: Optional[float] = None

    @property
    def idle(self) -> bool:
        """True when no point is in flight on this worker."""
        return self.current is None


class SupervisedRunner:
    """Fault-tolerant point executor: dispatch, supervise, retry, report.

    The runner dispatches points dynamically over per-worker pipes and
    its loop
    never blocks without a timeout: every wait covers worker pipes *and*
    process sentinels, so a worker that dies without reporting is
    detected immediately, its in-flight point is retried with backoff on
    a respawned worker, and a worker that exceeds the per-point timeout
    is SIGKILLed and treated the same way.  Scheduling is dynamic, but
    results are unaffected — each point is simulated from a freshly
    built workload, so stats are a pure function of the spec.
    """

    def __init__(
        self,
        jobs: int,
        policy: Optional[SupervisorPolicy] = None,
        *,
        obs: Optional[Tracer] = None,
        telemetry_capacity: Optional[int] = None,
        checkpoint_dir: Optional[Path | str] = None,
        checkpoint_interval: Optional[int] = None,
    ) -> None:
        if jobs < 1:
            raise ValueError("jobs must be >= 1")
        if checkpoint_interval is not None and checkpoint_interval < 1:
            raise ValueError("checkpoint_interval must be >= 1")
        self.jobs = jobs
        self.policy = policy if policy is not None else SupervisorPolicy()
        self.obs = obs if obs is not None else NULL_TRACER
        #: per-point tracer ring capacity inside workers; None = tracing
        #: off in workers (the zero-cost default)
        self.telemetry_capacity = telemetry_capacity
        #: per-point crash-consistent snapshots: workers write
        #: ``<dir>/pointNNNNN.ckpt`` every ``checkpoint_interval``
        #: events and resume from it after a death/timeout (both must
        #: be set; None = checkpointing off)
        self.checkpoint_dir = (
            str(checkpoint_dir) if checkpoint_dir is not None else None
        )
        self.checkpoint_interval = checkpoint_interval
        self._interrupted: Optional[int] = None

    @property
    def checkpointing(self) -> bool:
        """True when workers snapshot and resume in-flight points."""
        return (self.checkpoint_dir is not None
                and self.checkpoint_interval is not None)

    def _checkpoint_path(self, index: int) -> Optional[Path]:
        """This point's snapshot file, or None when checkpointing is off."""
        if self.checkpoint_dir is None:
            return None
        return checkpoint_file(self.checkpoint_dir, index)

    # -- signal handling ----------------------------------------------------

    def _install_signals(self) -> List[Tuple[int, Any]]:
        """Install graceful SIGINT/SIGTERM handlers (main thread only)."""
        self._interrupted = None
        if threading.current_thread() is not threading.main_thread():
            return []
        saved = []

        def _handler(signum: int, frame: Any) -> None:
            self._interrupted = signum

        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                saved.append((signum, signal.signal(signum, _handler)))
            except (ValueError, OSError):  # pragma: no cover - exotic hosts
                pass
        return saved

    @staticmethod
    def _restore_signals(saved: List[Tuple[int, Any]]) -> None:
        """Put the previous signal dispositions back."""
        for signum, handler in saved:
            try:
                signal.signal(signum, handler)
            except (ValueError, OSError):  # pragma: no cover
                pass

    # -- the supervisor loop ------------------------------------------------

    def run(
        self,
        specs: Sequence["PointSpec"],
        indices: Sequence[int],
        on_complete: Optional[Callable[[int, SimStats, float], None]] = None,
        *,
        on_quarantine: Optional[Callable[[int, BaseException], None]] = None,
        report: Optional[SweepReport] = None,
        on_telemetry: Optional[Callable[[PointTelemetry], None]] = None,
        monitor: Optional[SweepMonitor] = None,
        on_partial: Optional[Callable[[int], None]] = None,
    ) -> Dict[int, SimStats]:
        """Execute the points at ``indices`` under supervision.

        ``on_complete(idx, stats, wall)`` fires in completion order as
        results stream in (grid-order delivery is the caller's job, as
        with the unsupervised runner).  ``on_quarantine(idx, error)``
        fires when keep-going gives up on a point.  ``report`` (if
        given) accumulates per-point outcomes.  With
        ``telemetry_capacity`` set on the runner, ``on_telemetry(pt)``
        fires once per completed point with the worker's captured
        :class:`~repro.obs.aggregate.PointTelemetry` (same first-result
        dedup as ``on_complete``).  ``monitor`` (a
        :class:`~repro.obs.dashboard.SweepMonitor`) receives point
        lifecycle callbacks plus a ``tick()`` per supervisor loop turn.
        With checkpointing on, ``on_partial(idx)`` fires when a worker
        died or timed out leaving a resumable snapshot behind (the
        manifest records the point as ``partial``).

        Fail-fast mode (``keep_going=False``): the first point that
        exhausts its retries stops new dispatch; in-flight points are
        drained, remaining points are marked skipped, and the error with
        the smallest grid index is raised — the same error a serial
        grid-order loop would have hit first among those executed.
        """
        ctx = fork_context()
        assert ctx is not None, "SupervisedRunner requires fork support"
        policy = self.policy
        pending = deque(indices)
        retry_heap: List[Tuple[float, int, int]] = []  # (due, seq, idx)
        retry_seq = 0
        failures: Dict[int, int] = {}
        results: Dict[int, SimStats] = {}
        errors: Dict[int, BaseException] = {}
        outstanding = set(indices)
        failing_fast = False
        workers: List[_WorkerHandle] = []

        def label(idx: int) -> str:
            return specs[idx].label

        def spawn() -> None:
            parent_conn, child_conn = ctx.Pipe()
            proc = ctx.Process(
                target=_supervised_worker,
                args=(specs, child_conn, policy.chaos,
                      self.telemetry_capacity,
                      self.checkpoint_dir, self.checkpoint_interval),
                daemon=True,
            )
            proc.start()
            child_conn.close()
            workers.append(_WorkerHandle(proc, parent_conn))

        def attempt_failed(idx: int, exc: BaseException, kind: str) -> None:
            nonlocal failing_fast, retry_seq
            failures[idx] = failures.get(idx, 0) + 1
            if self.obs.enabled and kind == "timeout":
                self.obs.metrics.counter("sweep_timeouts").inc()
            if kind in ("death", "timeout") and on_partial is not None:
                ckpt = self._checkpoint_path(idx)
                if ckpt is not None and ckpt.exists():
                    # the dead attempt left a resumable snapshot: the
                    # next attempt (this sweep or a --resume rerun)
                    # continues from it instead of restarting
                    on_partial(idx)
            if (policy.retryable(kind) or isinstance(exc, ChaosError)) \
                    and failures[idx] <= policy.max_retries \
                    and not failing_fast:
                due = time.monotonic() + policy.backoff * (
                    2 ** (failures[idx] - 1)
                )
                retry_seq += 1
                heapq.heappush(retry_heap, (due, retry_seq, idx))
                if report is not None:
                    report.mark_retry(idx, kind, label(idx))
                if self.obs.enabled:
                    self.obs.metrics.counter("sweep_retries").inc()
                    self.obs.emit(
                        "sweep.retry", ts=self.obs.now(), comp="sweep",
                        args={"index": idx, "kind": kind,
                              "attempt": failures[idx],
                              "label": label(idx)},
                    )
                if monitor is not None:
                    monitor.point_retry(idx, label(idx), kind)
                return
            outstanding.discard(idx)
            if policy.keep_going:
                if report is not None:
                    report.mark_quarantined(
                        idx, exc, timed_out=(kind == "timeout"),
                        label=label(idx),
                    )
                if self.obs.enabled:
                    self.obs.metrics.counter("sweep_quarantined").inc()
                if monitor is not None:
                    monitor.point_quarantined(idx, label(idx))
                if on_quarantine is not None:
                    on_quarantine(idx, exc)
            else:
                errors[idx] = exc
                if report is not None:
                    report.mark_failed(idx, exc, label(idx))
                failing_fast = True
                # mirror serial fail-fast: abandon everything unstarted
                for other in list(pending):
                    outstanding.discard(other)
                    if report is not None:
                        report.mark_skipped(other, label(other))
                pending.clear()
                for _, _, other in retry_heap:
                    outstanding.discard(other)
                    if report is not None:
                        report.mark_skipped(other, label(other))
                retry_heap.clear()

        def drain(w: _WorkerHandle) -> None:
            """Consume every ready message from one worker's pipe."""
            while True:
                try:
                    if not w.conn.poll():
                        return
                    msg = w.conn.recv()
                except (EOFError, OSError):
                    return
                tag = msg[0]
                if tag == "start":
                    _, idx, attempt = msg
                    if w.current == idx:
                        w.started_at = time.monotonic()
                        if monitor is not None and w.proc.pid is not None:
                            monitor.point_started(idx, label(idx), w.proc.pid)
                elif tag == "done":
                    _, idx, attempt, stats, wall, telemetry, ckpt_info = msg
                    w.current, w.started_at = None, None
                    if idx not in outstanding:
                        continue  # resolved elsewhere (late arrival)
                    outstanding.discard(idx)
                    results[idx] = stats
                    if report is not None:
                        report.mark_completed(idx, label(idx), wall)
                        if ckpt_info is not None and ckpt_info["resumed"]:
                            report.mark_resumed(
                                idx, ckpt_info["events_saved"], label(idx)
                            )
                    if ckpt_info is not None:
                        # the point is done: its snapshot is superseded
                        # by the completed (and cached) result
                        ckpt = self._checkpoint_path(idx)
                        if ckpt is not None:
                            try:
                                ckpt.unlink()
                            except OSError:
                                pass
                    if telemetry is not None and on_telemetry is not None:
                        on_telemetry(telemetry)
                    if monitor is not None:
                        monitor.point_done(idx, label(idx), wall)
                    if on_complete is not None:
                        on_complete(idx, stats, wall)
                elif tag == "fail":
                    _, idx, attempt, exc = msg
                    w.current, w.started_at = None, None
                    if idx in outstanding:
                        attempt_failed(idx, exc, "error")

        saved = self._install_signals()
        try:
            for _ in range(min(self.jobs, len(pending))):
                spawn()
            while outstanding and self._interrupted is None:
                now = time.monotonic()
                # 1. dispatch work to idle workers (due retries first,
                #    then pending points in grid order)
                for w in workers:
                    if not w.idle or not w.proc.is_alive():
                        continue
                    idx: Optional[int] = None
                    if retry_heap and retry_heap[0][0] <= now:
                        _, _, idx = heapq.heappop(retry_heap)
                    elif pending:
                        idx = pending.popleft()
                    if idx is None:
                        break
                    w.current = idx
                    w.attempt = failures.get(idx, 0) + 1
                    w.started_at = now
                    try:
                        w.conn.send((idx, w.attempt))
                    except (BrokenPipeError, OSError):
                        pass  # death handled below; current stays set
                # 2. bounded wait on every pipe and process sentinel
                timeout = policy.tick
                if retry_heap:
                    timeout = min(timeout, max(0.0, retry_heap[0][0] - now))
                if policy.timeout is not None:
                    for w in workers:
                        if w.current is not None and w.started_at is not None:
                            timeout = min(timeout, max(
                                0.0,
                                w.started_at + policy.timeout - now,
                            ))
                waitables: List[Any] = []
                for w in workers:
                    waitables.append(w.conn)
                    waitables.append(w.proc.sentinel)
                if waitables:
                    connection.wait(waitables, timeout=timeout)
                else:  # every worker died this tick; pause before respawn
                    time.sleep(min(timeout, 0.01))
                # 3. consume results/heartbeats, then reap deaths
                for w in list(workers):
                    drain(w)
                    if not w.proc.is_alive():
                        drain(w)  # anything sent just before dying
                        if w.current is not None and w.current in outstanding:
                            attempt_failed(
                                w.current,
                                WorkerDied(
                                    f"worker (pid {w.proc.pid}) exited with "
                                    f"code {w.proc.exitcode} while running "
                                    f"point {w.current}"
                                ),
                                "death",
                            )
                        w.conn.close()
                        w.proc.join()
                        workers.remove(w)
                # 4. reap workers stuck past the per-point timeout
                if policy.timeout is not None:
                    now = time.monotonic()
                    for w in list(workers):
                        if (w.current is None or w.started_at is None
                                or now - w.started_at <= policy.timeout):
                            continue
                        drain(w)  # a result may have just landed
                        if w.current is None:
                            continue
                        idx = w.current
                        w.proc.kill()
                        w.proc.join()
                        w.conn.close()
                        workers.remove(w)
                        if idx in outstanding:
                            attempt_failed(
                                idx,
                                PointTimeout(
                                    f"point {idx} ({label(idx)!r}) exceeded "
                                    f"{policy.timeout:.1f}s wall-clock "
                                    f"timeout"
                                ),
                                "timeout",
                            )
                # 5. keep the worker pool sized to the remaining work
                while len(workers) < min(self.jobs, len(outstanding)):
                    spawn()
                if monitor is not None:
                    monitor.tick()
        finally:
            self._shutdown(workers, drain)
            self._restore_signals(saved)
        if self._interrupted is not None:
            if report is not None:
                report.interrupted = True
            raise SweepInterrupted(self._interrupted, len(results))
        if errors:
            raise errors[min(errors)]
        return results

    @staticmethod
    def _shutdown(
        workers: List[_WorkerHandle],
        drain: Callable[[_WorkerHandle], None],
    ) -> None:
        """Flush every ready result, then stop all workers.

        Draining first is what makes SIGINT graceful: any point that
        finished while the stop was being honored still reaches
        ``on_complete`` — and therefore the result cache — before the
        processes are torn down.
        """
        for w in workers:
            drain(w)
        for w in workers:
            if w.idle and w.proc.is_alive():
                try:
                    w.conn.send(None)
                except (BrokenPipeError, OSError):
                    pass
        deadline = time.monotonic() + 1.0
        for w in workers:
            w.proc.join(timeout=max(0.0, deadline - time.monotonic()))
            if w.proc.is_alive():
                w.proc.terminate()
                w.proc.join(timeout=1.0)
            if w.proc.is_alive():  # pragma: no cover - SIGTERM ignored
                w.proc.kill()
                w.proc.join()
            w.conn.close()
        workers.clear()


# re-exported field default so dataclasses docs render; kept explicit for mypy
__all__ = [
    "ChaosError",
    "ChaosPlan",
    "PointOutcome",
    "PointTimeout",
    "REPORT_SCHEMA",
    "SupervisedRunner",
    "SupervisorPolicy",
    "SweepInterrupted",
    "SweepManifest",
    "SweepReport",
    "WorkerDied",
    "checkpoint_file",
    "fork_context",
]
