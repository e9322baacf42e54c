"""`DashSystem`: the whole machine, wired together and runnable.

Construction builds the clusters, the interconnect, one directory
controller per cluster (full-map or sparse, any scheme from
:mod:`repro.core`), and the synchronization manager.  :meth:`run`
attaches a workload's streams to processors and drains the event queue;
the result is a :class:`~repro.machine.stats.SimStats`.

``run_workload`` is the one-call convenience used by examples and every
benchmark.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Union

from repro.core.base import DirectoryScheme
from repro.core.registry import make_scheme
from repro.core.sparse import (
    DirectoryStore,
    FullMapDirectory,
    SparseDirectory,
    sparse_entries_for_size_factor,
)
from repro.machine.cluster import Cluster
from repro.machine.config import MachineConfig
from repro.machine.directory import HINT, READ, WRITE, WRITEBACK, DirectoryController, Transaction
from repro.machine.events import EventQueue
from repro.machine.faults import FaultPlan
from repro.machine.invariants import InvariantChecker, machine_state_violations
from repro.machine.messages import MsgClass
from repro.machine.network import FaultyNetwork, make_network
from repro.machine.processor import Processor
from repro.machine.stats import SimStats
from repro.machine.sync import SyncManager
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.trace.workload import Workload


class DashSystem:
    """A simulated DASH machine bound to one workload."""

    def __init__(
        self,
        config: MachineConfig,
        workload: Workload,
        *,
        scheme: Optional[DirectoryScheme] = None,
        strict: bool = False,
        faults: Optional[Union[int, FaultPlan]] = None,
        invariants: Optional[str] = None,
        obs: Optional[Tracer] = None,
    ) -> None:
        config.validate()
        if workload.num_processors != config.num_processors:
            raise ValueError(
                f"workload has {workload.num_processors} processors but the "
                f"machine has {config.num_processors}"
            )
        if workload.block_bytes != config.block_bytes:
            raise ValueError(
                f"workload block size {workload.block_bytes} != machine "
                f"block size {config.block_bytes}"
            )
        self.config = config
        self.workload = workload
        #: raise on protocol anomalies instead of recovering (used in tests)
        self.strict = strict
        self.events = EventQueue()
        self.stats = SimStats(config.num_processors)
        #: observability sink — the shared NULL_TRACER unless a real
        #: Tracer is attached, so untraced runs pay one attribute load
        #: plus a falsy `.enabled` check per hook site and nothing more
        self.obs = obs if obs is not None else NULL_TRACER
        if self.obs.enabled:
            self.obs.bind_clock(lambda: self.events.now)
            self.stats.metrics = self.obs.metrics
        self.network = make_network(config.network, config.num_clusters)
        #: active fault plan, or None for the (byte-identical) clean path
        self.fault_plan: Optional[FaultPlan] = None
        if faults is not None:
            plan = faults if isinstance(faults, FaultPlan) else FaultPlan(faults)
            self.fault_plan = plan
            self.network = FaultyNetwork(self.network, plan)
        self.network.tracer = self.obs
        #: dense ``leg`` table: ``_leg_table[src][dst]`` == network.leg —
        #: latency models are pure, so the table is exact.  Directory
        #: controllers index it instead of calling ``leg`` per message leg
        #: (None for very large machines, where controllers fall back).
        self._leg_table: Optional[List[List[float]]] = None
        if config.num_clusters <= 256:
            leg = self.network.leg
            rng = range(config.num_clusters)
            self._leg_table = [[leg(s, d) for d in rng] for s in rng]
        #: runtime invariant checker, or None when checking is off
        self.invariants: Optional[InvariantChecker] = None
        if invariants is None:
            # default: watch faulty runs (sampled), stay out of clean runs
            invariants = "sampled" if faults is not None else "off"
        if invariants != "off":
            self.invariants = InvariantChecker(self, invariants)
        self.scheme = scheme if scheme is not None else make_scheme(
            config.scheme, config.num_clusters, seed=config.seed
        )
        self.clusters: List[Cluster] = [
            Cluster(i, config, tracer=self.obs)
            for i in range(config.num_clusters)
        ]
        self.directories: List[DirectoryController] = [
            DirectoryController(self, i, self._make_store(i))
            for i in range(config.num_clusters)
        ]
        self.sync = SyncManager(self)
        self.processors: List[Processor] = []
        self._finished = 0
        # hot-path bindings (config is frozen; none is ever rebound)
        self._block_bytes = config.block_bytes
        #: ``block % _num_clusters`` is config.home_of, inlined
        self._num_clusters = config.num_clusters
        #: monotone causal id for traced transactions (0 = never traced);
        #: advanced only when tracing is on, so untraced runs are untouched
        self._txn_seq = 0
        #: optional callable(proc_id, op, time) observing every op as it
        #: is issued — used by trace.recorder.InterleavingRecorder
        self.trace_hook = None

    # -- construction helpers ---------------------------------------------

    def _make_store(self, cluster_id: int) -> DirectoryStore:
        cfg = self.config
        if cfg.shared_entry_group is not None:
            from repro.core.shared_entry import SharedEntryDirectory

            return SharedEntryDirectory(
                self.scheme,
                cfg.shared_entry_group,
                stride=cfg.num_clusters,
                offset=cluster_id,
            )
        if cfg.sparse_size_factor is None:
            return FullMapDirectory(self.scheme)
        total_entries = sparse_entries_for_size_factor(
            cfg.total_cache_blocks, cfg.sparse_size_factor, cfg.sparse_assoc
        )
        per_home = max(cfg.sparse_assoc, total_entries // cfg.num_clusters)
        if per_home % cfg.sparse_assoc:
            per_home += cfg.sparse_assoc - per_home % cfg.sparse_assoc
        return SparseDirectory(
            self.scheme,
            per_home,
            cfg.sparse_assoc,
            policy=cfg.sparse_policy,
            seed=cfg.seed + cluster_id,
            stride=cfg.num_clusters,
            offset=cluster_id,
        )

    # -- topology helpers ----------------------------------------------------

    def cluster_of_proc(self, proc_id: int) -> int:
        """The cluster a processor lives in."""
        return proc_id // self.config.procs_per_cluster

    def home_of(self, block: int) -> int:
        """The home cluster of a memory block."""
        return self.config.home_of(block)

    # -- message accounting ----------------------------------------------------

    def count_msg(self, msg_class: MsgClass, src: int, dst: int) -> None:
        """Count one inter-cluster message (intra-cluster traffic is free)."""
        if src != dst:
            self.stats.count_msg(msg_class)

    # -- the memory system entry point ---------------------------------------------

    def access(
        self,
        proc: Processor,
        addr: int,
        is_write: bool,
        resume: Callable[[float, bool], None],
    ) -> None:
        """Handle one shared reference from ``proc``; resume when done.

        ``resume(time, local_hit)`` — ``local_hit`` tells the processor
        whether to book the elapsed time as busy (cache hit) or stall.
        """
        block = addr // self._block_bytes
        cluster_id = proc.cluster_id
        cluster = self.clusters[cluster_id]
        local = cluster.try_local(proc.proc_idx, block, is_write)
        stats = self.stats
        events = self.events
        if local.satisfied:
            where = local.where
            if where == "l1":
                stats.l1_hits += 1
                hit = True
            elif where == "l2":
                stats.l2_hits += 1
                hit = True
            else:
                stats.local_misses += 1
                hit = False
            if local.evictions:
                self._handle_evictions(cluster_id, local.evictions)
            done = events.now + local.latency
            events.at(done, resume, done, hit)
            return

        stats.remote_misses += 1
        home = block % self._num_clusters
        txn_id: Optional[int] = None
        if self.obs.enabled:
            # the causal correlation id every span this transaction
            # produces carries (see repro.obs.causal)
            self._txn_seq += 1
            txn_id = self._txn_seq

        self.directories[home].submit(Transaction(
            WRITE if is_write else READ, block, cluster_id, proc.proc_idx,
            self._complete_miss, False, txn_id, resume, events.now,
        ))

    def _complete_miss(self, txn: Transaction, t: float) -> None:
        """Directory transaction done: fill the requester and resume.

        Shared completion handler for every remote miss — the transaction
        carries its own continuation (``txn.resume``) and issue time, so
        no per-miss closure is allocated.
        """
        is_write = txn.kind == WRITE
        block = txn.block
        cluster_id = txn.requester
        obs = self.obs
        if obs.enabled:
            kind = "write" if is_write else "read"
            t_issue = txn.t_issue
            obs.emit(
                f"txn.{kind}",
                ts=t_issue,
                dur=t - t_issue,
                comp="directory",
                tid=block % self._num_clusters,
                args={"block": block, "requester": cluster_id,
                      "txn_id": txn.txn_id},
            )
            obs.metrics.histogram(f"txn_latency.{kind}").observe(t - t_issue)
        evictions = self.clusters[cluster_id].install_from_directory(
            txn.proc_idx, block, is_write
        )
        if evictions:
            self._handle_evictions(cluster_id, evictions)
        txn.resume(t, False)

    def _handle_evictions(self, cluster_id: int, evictions) -> None:
        """Issue writebacks (and optional hints) for cache fills' victims."""
        cluster = self.clusters[cluster_id]
        directories = self.directories
        num_clusters = self._num_clusters
        for vblock, was_dirty in evictions:
            if was_dirty:
                self.stats.writebacks += 1
                if self.obs.enabled:
                    self.obs.emit_now(
                        "wb.issue", comp="cluster", tid=cluster_id,
                        args={"block": vblock},
                    )
                still_shared = cluster.copies_besides_wb(vblock)
                directories[vblock % num_clusters].submit(
                    Transaction(WRITEBACK, vblock, cluster_id, 0, None,
                                still_shared)
                )
            elif self.config.replacement_hints:
                if not cluster.copies_besides_wb(vblock):
                    if self.obs.enabled:
                        self.obs.emit_now(
                            "hint.issue", comp="cluster", tid=cluster_id,
                            args={"block": vblock},
                        )
                    directories[vblock % num_clusters].submit(
                        Transaction(HINT, vblock, cluster_id)
                    )

    # -- checkpointing --------------------------------------------------------------

    def checkpoint(self, path: Optional[str] = None, *, meta=None):
        """Snapshot the live machine; atomically written when ``path`` given.

        Returns the :class:`~repro.machine.checkpoint.SimCheckpoint`.
        The snapshot is captured *before* any instrumentation is
        emitted, so checkpoint contents never depend on how many
        checkpoints preceded them (see the determinism contract in
        ``docs/robustness.md``).
        """
        from repro.machine.checkpoint import SimCheckpoint

        ckpt = SimCheckpoint.capture(self, meta=meta)
        nbytes = len(ckpt.payload())
        if path is not None:
            nbytes = ckpt.save(path)
        obs = self.obs
        if obs.enabled:
            obs.emit(
                "ckpt.save", ts=self.events.now, comp="ckpt",
                args={"bytes": nbytes, "events_run": self.events.events_run},
            )
            obs.metrics.counter("ckpt_saves").inc()
            obs.metrics.counter("ckpt_bytes").inc(nbytes)
        return ckpt

    def restore(self, ckpt) -> None:
        """Restore a checkpoint onto this freshly constructed system.

        ``ckpt`` is a :class:`~repro.machine.checkpoint.SimCheckpoint`
        (from :func:`~repro.machine.checkpoint.load_checkpoint` or a
        live :meth:`checkpoint` call).  The next :meth:`run` continues
        the restored event queue to completion.
        """
        ckpt.restore_into(self)
        obs = self.obs
        if obs.enabled:
            obs.emit(
                "ckpt.restore", ts=self.events.now, comp="ckpt",
                args={"events_run": self.events.events_run},
            )
            obs.metrics.counter("ckpt_resumes").inc()

    # -- run loop -------------------------------------------------------------------

    def proc_finished(self, proc: Processor) -> None:
        """A processor drained its stream (run-loop bookkeeping)."""
        self._finished += 1

    def run(
        self,
        *,
        max_events: Optional[int] = None,
        checkpoint_path: Optional[str] = None,
        checkpoint_interval: Optional[int] = None,
        on_checkpoint: Optional[Callable[[object], None]] = None,
        checkpoint_meta: Optional[dict] = None,
    ) -> SimStats:
        """Simulate to completion and return the statistics.

        ``checkpoint_path`` + ``checkpoint_interval`` snapshot the
        machine to ``checkpoint_path`` every ``checkpoint_interval``
        events (skipping the final drain, where the completed results
        supersede any snapshot).  ``on_checkpoint(ckpt)`` fires after
        each periodic snapshot is on disk — the chaos harness uses it
        to kill the process at a moment a resumable checkpoint is
        guaranteed to exist.  Once processors exist (after a
        :meth:`restore`, or a ``max_events``-capped run), ``run``
        continues the event queue instead of restarting.
        """
        if not self.processors:
            self.processors = [
                Processor(self, p, self.workload.stream(p))
                for p in range(self.config.num_processors)
            ]
            for proc in self.processors:
                proc.start()
        if checkpoint_interval is not None:
            if checkpoint_interval < 1:
                raise ValueError("checkpoint_interval must be >= 1")
            if max_events is not None:
                raise ValueError(
                    "checkpoint_interval and max_events are exclusive"
                )
            events = self.events
            while events:
                events.run(max_events=checkpoint_interval)
                if events:
                    ckpt = self.checkpoint(
                        checkpoint_path, meta=checkpoint_meta
                    )
                    if on_checkpoint is not None:
                        on_checkpoint(ckpt)
        else:
            self.events.run(max_events=max_events)
        if self._finished != len(self.processors) and max_events is None:
            stuck = [p.proc_id for p in self.processors if not p.done]
            raise RuntimeError(
                f"simulation deadlocked: processors {stuck} never finished "
                f"({self.sync.pending_waiters()} sync waiters pending)"
            )
        self.stats.exec_time = max(
            (p.stats.finish_time for p in self.processors), default=0.0
        )
        if self.invariants is not None and max_events is None:
            self.invariants.finalize(self.events.now)
        return self.stats

    # -- invariant checking (used heavily in tests) ------------------------------------

    def check_coherence(self) -> None:
        """Verify machine-wide coherence invariants; raises on violation.

        * a DIRTY block lives in exactly one cluster, and the home
          directory records that cluster as the owner;
        * every cluster holding a clean copy is covered by the home
          directory's (possibly conservative) sharer set;
        * every L1 line has an L2 backing line, and schemes declaring
          themselves precise have not degraded any presence entry.

        The full invariant definitions live in
        :mod:`repro.machine.invariants`; this raises the first
        :class:`~repro.machine.invariants.CoherenceViolation` found (a
        subclass of :class:`AssertionError`, so historical callers keep
        working).
        """
        for violation in machine_state_violations(self):
            raise violation


def run_workload(
    config: MachineConfig,
    workload: Workload,
    *,
    scheme: Optional[DirectoryScheme] = None,
    check: bool = False,
    strict: bool = False,
    faults: Optional[Union[int, FaultPlan]] = None,
    invariants: Optional[str] = None,
    obs: Optional[Tracer] = None,
    checkpoint_path: Optional[str] = None,
    checkpoint_interval: Optional[int] = None,
    checkpoint_meta: Optional[dict] = None,
) -> SimStats:
    """Build a machine, run the workload, optionally verify coherence.

    ``faults`` — an int seed or a :class:`FaultPlan` enables fault
    injection; ``invariants`` — ``"strict"`` / ``"sampled"`` / ``"off"``
    (default: sampled when faults are enabled, off otherwise);
    ``strict`` makes the first invariant violation raise immediately;
    ``obs`` — attach a :class:`~repro.obs.tracer.Tracer` to record
    structured events and metrics (off by default, and free when off);
    ``checkpoint_path`` + ``checkpoint_interval`` — periodic crash-
    consistent snapshots, as documented on :meth:`DashSystem.run`.
    """
    system = DashSystem(
        config,
        workload,
        scheme=scheme,
        strict=strict,
        faults=faults,
        invariants=invariants,
        obs=obs,
    )
    stats = system.run(
        checkpoint_path=checkpoint_path,
        checkpoint_interval=checkpoint_interval,
        checkpoint_meta=checkpoint_meta,
    )
    if check:
        system.check_coherence()
    return stats
