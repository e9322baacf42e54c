"""Per-cluster directory controller: the DASH coherence protocol engine.

Each cluster's controller owns the directory state for the blocks whose
home it is.  Transactions (read / write / writeback / replacement hint)
are serialized per block: a block stays *busy* from service until the
transaction's last effect lands, and later arrivals queue — the same
global ordering DASH enforces with busy-retry NAKs, but deterministic.

State effects are applied atomically at service time; latency is
composed from the §5 constants (network legs, memory/bus service,
directory lookup, remote-cache service, invalidation service) plus FIFO
queueing on the controller itself, so heavier message traffic slows
execution the way a busier real machine would.

Invalidation accounting matches the paper's conventions:

* only inter-cluster messages count (the home's own cache is invalidated
  over its local bus — "the home cluster ... [does] not require an
  invalidation");
* every invalidation message is answered by exactly one acknowledgement
  (to the *requester* for writes, to the home's RAC for sparse
  replacements and Dir_iNB pointer evictions);
* an *invalidation event* is a write serviced in a clean state, a
  Dir_iNB pointer-overflow eviction, or a sparse-directory replacement,
  histogrammed by how many invalidation messages it sent (Figures 3-6).
"""

from __future__ import annotations

from collections import deque
from typing import (
    TYPE_CHECKING,
    Callable,
    Deque,
    Dict,
    List,
    Optional,
    Set,
    Tuple,
)

from repro.core.sparse import AllWaysBusy, DirectoryStore, DirLine, Eviction
from repro.machine.faults import FaultBudgetExceeded, FaultKind
from repro.machine.messages import MsgClass
from repro.machine.stats import InvalCause

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.machine.system import DashSystem

READ = "read"
WRITE = "write"
WRITEBACK = "writeback"
HINT = "hint"

# Message classes (and the per-write invalidation cause) as plain module
# constants: the per-message counter bumps below would otherwise pay an
# enum attribute load each time.
_REQUEST = MsgClass.REQUEST
_REPLY = MsgClass.REPLY
_INVALIDATION = MsgClass.INVALIDATION
_ACKNOWLEDGEMENT = MsgClass.ACKNOWLEDGEMENT
_WRITE_EVENT = InvalCause.WRITE


def _nonzero_phases(**phases: float) -> Dict[str, float]:
    """Keep only the nonzero phase legs (sums are unaffected)."""
    return {name: cycles for name, cycles in phases.items() if cycles}


class _LegRowProxy:
    """Row view over ``Network.leg`` for machines too large to tabulate."""

    __slots__ = ("_net", "_src")

    def __init__(self, net, src: int) -> None:
        self._net = net
        self._src = src

    def __getitem__(self, dst: int) -> float:
        return self._net.leg(self._src, dst)


class _LegTableFallback:
    """``legs[src][dst]`` facade that defers to ``Network.leg`` directly."""

    __slots__ = ("_net",)

    def __init__(self, net) -> None:
        self._net = net

    def __getitem__(self, src: int) -> _LegRowProxy:
        return _LegRowProxy(self._net, src)


class Transaction:
    """One memory transaction travelling to a home directory."""

    __slots__ = ("kind", "block", "requester", "proc_idx", "on_complete",
                 "still_shared", "attempts", "delivered", "t_arrive",
                 "t_start", "txn_id", "phases", "resume", "t_issue")

    def __init__(
        self,
        kind: str,
        block: int,
        requester: int,
        proc_idx: int = 0,
        on_complete: Optional[Callable[["Transaction", float], None]] = None,
        still_shared: bool = False,
        txn_id: Optional[int] = None,
        resume: Optional[Callable[[float, bool], None]] = None,
        t_issue: float = 0.0,
    ) -> None:
        self.kind = kind
        self.block = block
        self.requester = requester
        self.proc_idx = proc_idx
        #: completion hook, invoked as ``on_complete(txn, now)``.  Taking
        #: the transaction positionally lets the system pass one shared
        #: bound method instead of allocating a closure per miss.
        self.on_complete = on_complete
        self.still_shared = still_shared
        #: fault-layer redeliveries so far (drops and NAKs)
        self.attempts = 0
        #: accepted at the home once — duplicate deliveries are deduped
        self.delivered = False
        #: acceptance time at the home (observability's dir.service span)
        self.t_arrive = 0.0
        #: execution start — when the directory state actually changes
        #: (later than t_arrive if the block was busy or the controller
        #: occupied); trace conformance orders services by this instant
        self.t_start = 0.0
        #: causal correlation id threaded through every span this
        #: transaction produces (None when tracing is disabled — see
        #: repro.obs.causal for the chain reconstruction it enables)
        self.txn_id = txn_id
        #: exact service-latency decomposition recorded at execute time
        #: (cycles per phase; the values sum to the execution delta)
        self.phases: Optional[Dict[str, float]] = None
        #: processor continuation + issue time, carried for the system's
        #: shared miss-completion handler (None/0.0 for writebacks, hints)
        self.resume = resume
        self.t_issue = t_issue

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Txn {self.kind} block={self.block} from={self.requester}>"


class DirectoryController:
    """Coherence controller for one cluster's slice of memory."""

    def __init__(
        self, machine: "DashSystem", cluster_id: int, store: DirectoryStore
    ) -> None:
        self.machine = machine
        self.cluster_id = cluster_id
        self.store = store
        self._busy: Set[int] = set()
        self._pending: Dict[int, Deque[Transaction]] = {}
        self._ctrl_free = 0.0
        # Hot-path bindings: everything here is fixed before controllers
        # are built and never rebound (machine.invariants *can* be swapped
        # after construction, so it is always read through self.machine).
        self._events = machine.events
        self._cfg = machine.config
        self._net = machine.network
        self._deliver = getattr(machine.network, "deliver", None)
        self._clusters = machine.clusters
        self._stats = machine.stats
        self._obs = machine.obs
        self._fault_plan = machine.fault_plan
        self._count_msg = machine.count_msg
        #: the raw message counter — hot sites bump it directly (inlined
        #: machine.count_msg, whose src != dst guard the sites keep)
        self._messages = machine.stats.messages
        #: ``legs[src][dst]`` == network.leg(src, dst) without the call
        self._legs = (
            machine._leg_table
            if machine._leg_table is not None
            else _LegTableFallback(machine.network)
        )
        self._strict = machine.strict
        self._occupancy = machine.config.ctrl_occupancy_cycles
        #: pooled stores (shared-entry) group several blocks per entry;
        #: per-block stores always report group_mates == []
        self._pooled = (
            type(store).blocks_invalidated_with
            is not DirectoryStore.blocks_invalidated_with
        )
        self._serial = getattr(machine.scheme, "serial_invalidations", False)
        self._execute_kind = {
            READ: self._execute_read,
            WRITE: self._execute_write,
            WRITEBACK: self._execute_writeback,
            HINT: self._execute_hint,
        }
        #: (block, cluster) -> number of in-flight writebacks that were
        #: obsoleted by a subsequent ownership re-grant and must be dropped
        self._cancelled_wb: Dict[Tuple[int, int], int] = {}
        #: (block, cluster) -> writebacks submitted but not yet serviced.
        #: The home tracks this itself because the cluster-side
        #: writeback-buffer ghost can be cleared (by an invalidation)
        #: while the writeback message is still travelling.
        self._wb_inflight: Dict[Tuple[int, int], int] = {}
        #: grouped writes currently in NAK-retry because a group-mate's
        #: transaction is in flight (see _execute_write's tie-break)
        self._deferred_writes: Set[int] = set()

    def __getstate__(self) -> Dict[str, object]:
        # Checkpoint bytes must be canonical, but a set pickles in an
        # order that depends on its insertion history; a copy rebuilt in
        # sorted order iterates in an order fixed by its contents.
        state = dict(vars(self))
        state["_busy"] = set(sorted(self._busy))
        state["_deferred_writes"] = set(sorted(self._deferred_writes))
        return state

    # -- submission (requester side) ----------------------------------------

    def submit(self, txn: Transaction) -> None:
        """Send ``txn`` to this home; called at the requester's issue time.

        On the clean network the request goes on the wire right here;
        with fault injection :meth:`_send` delivers it.
        """
        requester = txn.requester
        if txn.kind == WRITEBACK:
            key = (txn.block, requester)
            self._wb_inflight[key] = self._wb_inflight.get(key, 0) + 1
        if requester != self.cluster_id:
            self._messages[_REQUEST] += 1
        events = self._events
        invariants = self.machine.invariants
        if invariants is not None:
            invariants.on_submit(txn, events.now)
        if self._deliver is not None:
            self._send(txn)
            return
        now = events.now
        arrival = now + self._legs[requester][self.cluster_id]
        if self._obs.enabled:
            self._trace_msg(txn, now, arrival)
        events.at(arrival, self._arrive, txn)

    def _send(self, txn: Transaction) -> None:
        """Put the request on the wire through the fault layer."""
        machine = self.machine
        net = self._net
        events = self._events
        now = events.now
        deliver = self._deliver
        # Replacement hints depend on point-to-point ordering (a delayed
        # hint could erase a re-fetched sharer) and are pure optimization,
        # so they are never delayed and never retried — see faults.py.
        best_effort = txn.kind == HINT
        d = deliver(
            txn.requester, self.cluster_id, now,
            reorderable=not best_effort, txn_id=txn.txn_id,
        )
        if d.fault is not None:
            machine.stats.count_fault(d.fault)
        if not d.arrivals:
            # dropped in the interconnect: the requester's timeout fires
            # and the request is reissued with exponential backoff
            if best_effort:
                self._abandon(txn)
            else:
                self._schedule_retry(txn, 0.0)
            return
        if d.nak:
            # the home refuses service: the NAK rides the reply class, and
            # the requester retries after the observed round trip
            machine.count_msg(_REPLY, self.cluster_id, txn.requester)
            if best_effort:
                self._abandon(txn)
            else:
                round_trip = (d.arrivals[0] - now) + net.leg(
                    self.cluster_id, txn.requester
                )
                self._schedule_retry(txn, round_trip)
            return
        for arrival in d.arrivals:
            if self._obs.enabled:
                self._trace_msg(txn, now, arrival)
            events.at(arrival, self._arrive, txn)

    def _trace_msg(self, txn: Transaction, sent: float, arrival: float) -> None:
        """Record one wire message (inject -> deliver) when tracing."""
        obs = self.machine.obs
        if obs.enabled:
            args: Dict[str, object] = {
                "kind": txn.kind, "block": txn.block, "dst": self.cluster_id,
            }
            if txn.txn_id is not None:
                args["txn_id"] = txn.txn_id
            obs.emit(
                "net.msg",
                ts=sent,
                dur=arrival - sent,
                comp="network",
                tid=txn.requester,
                args=args,
            )
            obs.metrics.histogram("msg_latency").observe(arrival - sent)

    def _abandon(self, txn: Transaction) -> None:
        """Drop a best-effort request for good (hints are optimizations)."""
        if self.machine.invariants is not None:
            self.machine.invariants.on_abandon(txn)

    def _schedule_retry(self, txn: Transaction, extra_delay: float) -> None:
        """Reissue a faulted request after (bounded) exponential backoff."""
        machine = self.machine
        plan = machine.fault_plan
        txn.attempts += 1
        if txn.attempts > plan.max_retries:
            raise FaultBudgetExceeded(
                f"{txn.kind} request for block {txn.block} from cluster "
                f"{txn.requester} to home {self.cluster_id} failed "
                f"{txn.attempts} deliveries (max_retries="
                f"{plan.max_retries})",
                kind=txn.kind,
                block=txn.block,
                attempts=txn.attempts,
            )
        machine.stats.fault_retries += 1
        delay = extra_delay + plan.backoff(txn.attempts)
        obs = machine.obs
        if obs.enabled:
            retry_args: Dict[str, object] = {
                "kind": txn.kind, "block": txn.block,
                "attempt": txn.attempts,
            }
            if txn.txn_id is not None:
                retry_args["txn_id"] = txn.txn_id
            obs.emit_now(
                "txn.retry", comp="directory", tid=self.cluster_id,
                args=retry_args,
            )
            obs.metrics.counter("retries").inc()
            obs.metrics.histogram("retry_wait").observe(delay)
        machine.events.after(delay, self._resend, txn)

    def _resend(self, txn: Transaction) -> None:
        """The retry is a real message: count it, then send again."""
        if txn.requester != self.cluster_id:
            self._messages[_REQUEST] += 1
        self._send(txn)

    def _arrive(self, txn: Transaction) -> None:
        if txn.delivered:
            # duplicate copy of an already-accepted request: the home
            # dedupes by sequence number and discards it silently
            return
        txn.delivered = True
        txn.t_arrive = self._events.now
        plan = self._fault_plan
        if plan is not None and plan.corruption():
            # counted at roll time: the pulse happened even if the line it
            # hit was busy/dirty/absent and absorbed it without effect
            self._stats.count_fault(FaultKind.CORRUPT)
            self._inject_corruption(txn.block)
        block = txn.block
        busy = self._busy
        if block in busy:
            self._pending.setdefault(block, deque()).append(txn)
            return
        busy.add(block)
        self._start(txn)

    def _inject_corruption(self, block: int) -> None:
        """Transient directory corruption: record a phantom sharer.

        Routed through the normal :meth:`_record_sharer` path, so the
        corruption is *conservative* (the presence entry stays a superset
        of the truth) and any Dir_iNB forced eviction it triggers follows
        the real protocol.  Blocks with in-flight transactions — their
        own or a pooled group-mate's — are skipped: their installs land
        only at completion, which the phantom eviction would miss.
        """
        if any(
            b in self._busy for b in self.store.blocks_invalidated_with(block)
        ):
            return
        line = self.store.lookup(block)
        if line is None or line.dirty:
            return
        node = self.machine.fault_plan.spurious_sharer(
            self.machine.config.num_clusters
        )
        self._record_sharer(line, node, block)

    def _start(self, txn: Transaction) -> None:
        """Queue on the controller (FIFO occupancy), then execute.

        An idle controller executes inline (the body of :meth:`_execute`,
        which stays the continuation for an occupied controller and for
        busy retries).
        """
        events = self._events
        now = events.now
        start = self._ctrl_free
        if start > now:
            txn.t_start = start
            self._ctrl_free = start + self._occupancy
            events.at(start, self._execute, txn)
            return
        txn.t_start = now
        self._ctrl_free = now + self._occupancy
        try:
            delta = self._execute_kind[txn.kind](txn)
        except AllWaysBusy:
            self._retry_later(txn)
            return
        events.after(delta, self._finish, txn)

    # -- execution ------------------------------------------------------------

    def _execute(self, txn: Transaction) -> None:
        try:
            delta = self._execute_kind[txn.kind](txn)
        except AllWaysBusy:
            # only reads/writes allocate, so only they can land here
            self._retry_later(txn)
            return
        self._events.after(delta, self._finish, txn)

    def _retry_later(self, txn: Transaction) -> None:
        """Sparse allocation could not victimize anyone (all ways pinned by
        in-flight transactions): retry after a short backoff — the
        simulation analogue of DASH's busy NAK.  The pinned transactions
        complete at fixed future times, so this always terminates."""
        self._events.after(self._occupancy + 1.0, self._execute, txn)

    def _finish(self, txn: Transaction) -> None:
        now = self._events.now
        obs = self._obs
        if obs.enabled:
            # t_start (and, for writebacks, the resolved still_shared flag)
            # lets repro.verify.conformance order and interpret services by
            # the instant the directory state actually changed
            args: Dict[str, object] = {
                "kind": txn.kind, "block": txn.block,
                "requester": txn.requester, "t_start": txn.t_start,
            }
            if txn.kind == WRITEBACK:
                args["still_shared"] = txn.still_shared
            if txn.txn_id is not None:
                args["txn_id"] = txn.txn_id
            if txn.phases is not None:
                args["phases"] = dict(txn.phases)
            obs.emit(
                "dir.service",
                ts=txn.t_arrive,
                dur=now - txn.t_arrive,
                comp="directory",
                tid=self.cluster_id,
                args=args,
            )
        on_complete = txn.on_complete
        if on_complete is not None:
            # Completion effects (requester fill, processor resume) must be
            # visible before the next transaction on this block executes.
            on_complete(txn, now)
        block = txn.block
        busy = self._busy
        busy.discard(block)
        invariants = self.machine.invariants
        if invariants is not None:
            # after the completion effects and the busy release, so a
            # strict scan sees this block's final (coherent) state
            invariants.on_finish(txn, now)
        pending = self._pending
        if pending:
            queue = pending.get(block)
            if queue:
                nxt = queue.popleft()
                if not queue:
                    del pending[block]
                busy.add(block)
                self._start(nxt)

    # -- observability helpers ---------------------------------------------

    def _trace_inval_round(
        self, cause: InvalCause, block: int, inval_msgs: int,
        txn_id: Optional[int] = None,
    ) -> None:
        """Record one invalidation round (event + per-cause histogram)."""
        obs = self.machine.obs
        if obs.enabled:
            round_args: Dict[str, object] = {
                "cause": cause.value, "block": block, "invals": inval_msgs,
            }
            if txn_id is not None:
                round_args["txn_id"] = txn_id
            obs.emit_now(
                "dir.inval_round", comp="directory", tid=self.cluster_id,
                args=round_args,
            )
            obs.metrics.histogram(
                f"invals_per_event.{cause.value}"
            ).observe(inval_msgs)

    def _sample_occupancy(self) -> None:
        """Sample this home's directory occupancy (entries in use)."""
        obs = self.machine.obs
        if obs.enabled:
            occ = self.store.occupancy()
            obs.emit_counter(
                "dir.occupancy", ts=self.machine.events.now, value=occ,
                comp="directory", tid=self.cluster_id,
            )
            obs.metrics.histogram("dir_occupancy").observe(occ)
            obs.metrics.gauge("dir_occupancy_peak").set_max(occ)

    # -- reads ------------------------------------------------------------------

    def _execute_read(self, txn: Transaction) -> float:
        cfg = self._cfg
        home = self.cluster_id
        req = txn.requester
        # the live busy set pins in-flight blocks' entries (the requested
        # block is in it too, but is never a victim candidate)
        line, evictions = self.store.get_or_allocate(txn.block, self._busy)
        if self._obs.enabled:
            self._sample_occupancy()
        delta = (
            self._process_sparse_evictions(evictions, txn.txn_id)
            if evictions else 0.0
        )

        if line.dirty and line.owner is not None and line.owner != req:
            # Forward to the owning cluster: it downgrades to SHARED,
            # supplies the data, and sends a sharing writeback home.
            owner = line.owner
            found = self._clusters[owner].downgrade_block(txn.block)
            if not found and self._strict:  # pragma: no cover
                raise RuntimeError(
                    f"coherence bug: forward for block {txn.block} found no "
                    f"copy at owner cluster {owner}"
                )
            line.dirty = False
            line.owner = None
            # no entry.reset(): while a block is dirty its presence entry
            # records no sharers of it (at most the pooled group-mates of
            # a SharedEntryDirectory, which must be preserved)
            self._record_sharer(line, owner, txn.block, txn.txn_id)
            self._record_sharer(line, req, txn.block, txn.txn_id)
            messages = self._messages
            if home != owner:
                messages[_REQUEST] += 2  # forward + sharing wb
            if owner != req:
                messages[_REPLY] += 1  # data
            forward_leg = self._legs[home][owner]
            reply_leg = self._legs[owner][req]
            if self._obs.enabled:
                txn.phases = _nonzero_phases(
                    sparse_recall=delta,
                    dir_lookup=cfg.dir_service_cycles,
                    net_forward=forward_leg,
                    remote_cache=cfg.cache_service_cycles,
                    net_reply=reply_leg,
                )
            return (
                delta
                + cfg.dir_service_cycles
                + forward_leg
                + cfg.cache_service_cycles
                + reply_leg
            )

        if line.dirty and line.owner == req:
            # The requester evicted its dirty copy and is re-reading while
            # its writeback is still in flight: serve from the (logically
            # written-back) data and cancel the obsolete writeback.
            self._cancel_inflight_writeback(txn.block, req)
            line.dirty = False
            line.owner = None
        # _record_sharer inlined: the common read completes here
        victims = line.entry.record_sharer(req)
        if victims:
            self._evict_pointer_victims(victims, txn.block, txn.txn_id)
        if home != req:
            self._messages[_REPLY] += 1
        reply_leg = self._legs[home][req]
        if self._obs.enabled:
            txn.phases = _nonzero_phases(
                sparse_recall=delta,
                memory=cfg.bus_cycles,
                net_reply=reply_leg,
            )
        return delta + cfg.bus_cycles + reply_leg

    def _record_sharer(
        self, line: DirLine, node: int, block: int,
        txn_id: Optional[int] = None,
    ) -> None:
        """Add a sharer, handling Dir_iNB's forced evictions."""
        victims = line.entry.record_sharer(node)
        if victims:
            self._evict_pointer_victims(victims, block, txn_id)

    def _evict_pointer_victims(
        self, victims: Tuple[int, ...], block: int, txn_id: Optional[int]
    ) -> None:
        """Invalidate the sharers a Dir_iNB pointer overflow evicted."""
        machine = self.machine
        stats = self._stats
        messages = self._messages
        home = self.cluster_id
        inval_msgs = 0
        for victim in victims:
            self._clusters[victim].invalidate_block(block, txn_id=txn_id)
            if victim != home:
                messages[_INVALIDATION] += 1
                messages[_ACKNOWLEDGEMENT] += 1
                inval_msgs += 1
        stats.nb_evictions += len(victims)
        stats.record_inval_event(InvalCause.NB_EVICT, inval_msgs)
        if self._obs.enabled:
            self._trace_inval_round(InvalCause.NB_EVICT, block, inval_msgs, txn_id)
        if machine.invariants is not None:
            # acks return to the home's RAC, so recipient == home
            machine.invariants.on_inval_round(
                home=home,
                recipient=home,
                targets=victims,
                invals=inval_msgs,
                acks=inval_msgs,
            )

    # -- writes -----------------------------------------------------------------

    def _execute_write(self, txn: Transaction) -> float:
        cfg = self._cfg
        machine = self.machine
        home = self.cluster_id
        req = txn.requester
        # the live busy set pins in-flight blocks' entries (the requested
        # block is in it too, but is never a victim candidate)
        line, evictions = self.store.get_or_allocate(txn.block, self._busy)
        if self._obs.enabled:
            self._sample_occupancy()
        delta = (
            self._process_sparse_evictions(evictions, txn.txn_id)
            if evictions else 0.0
        )

        if line.dirty and line.owner is not None and line.owner != req:
            # Ownership transfer: forward to owner, which invalidates its
            # copy, sends data+ownership to the requester, and notifies us.
            owner = line.owner
            self._clusters[owner].invalidate_block(
                txn.block, txn_id=txn.txn_id
            )
            line.owner = req  # stays dirty
            # ownership grant: req's earlier writebacks (if any are still
            # in flight) predate this grant and must never match
            self._cancel_inflight_writeback(txn.block, req)
            messages = self._messages
            if home != owner:
                messages[_REQUEST] += 2  # forward + transfer notice
            if owner != req:
                messages[_REPLY] += 1  # data+ownership
            forward_leg = self._legs[home][owner]
            reply_leg = self._legs[owner][req]
            if self._obs.enabled:
                txn.phases = _nonzero_phases(
                    sparse_recall=delta,
                    dir_lookup=cfg.dir_service_cycles,
                    net_forward=forward_leg,
                    remote_cache=cfg.cache_service_cycles,
                    net_reply=reply_leg,
                )
            return (
                delta
                + cfg.dir_service_cycles
                + forward_leg
                + cfg.cache_service_cycles
                + reply_leg
            )

        if line.dirty and line.owner == req:
            # Re-granting ownership to a cluster whose writeback is still
            # in flight: the writeback is obsolete, drop it on arrival.
            self._cancel_inflight_writeback(txn.block, req)
            line.dirty = False
            line.owner = None
            # the entry holds no sharers of this block while dirty; any
            # pooled group-mate sharers it holds fall through to the
            # normal target collection below (conservative)
        else:
            # The requester can still have an *obsolete* writeback in
            # flight even though the line is clean: it evicted its dirty
            # copy, then a forwarded read consumed the writeback-buffer
            # ghost and cleaned the line.  Re-dirtying the line for the
            # same owner below would make that stale writeback match on
            # arrival and wrongly clean the directory (found by the
            # repro.verify model checker under message reordering), so
            # obsolete it now.
            self._cancel_inflight_writeback(txn.block, req)

        # Clean/shared (the paper's "invalidation event"): collect targets,
        # invalidate them, count invals and the acks the requester awaits.
        # Invalidations leave the directory back to back — the memory-based
        # directory "can send invalidation messages as fast as the network
        # can accept them" (§3.3), i.e. one per issue slot, so a broadcast
        # both occupies the controller longer and delays its last ack.
        serial = self._serial
        if serial and hasattr(line.entry, "invalidation_chain"):
            # SCI order: unravel the list head-first (§3.3)
            targets = list(line.entry.invalidation_chain(exclude=(req,)))
        else:
            targets = line.entry.targets_sorted((req,))
        # A store that pools several blocks' presence into one entry
        # (SharedEntryDirectory) resets the whole group's knowledge below,
        # so clean copies of every group-mate must also die now.
        if self._pooled:
            group_mates = [
                b
                for b in self.store.blocks_invalidated_with(txn.block)
                if b != txn.block
            ]
            blockers = [b for b in group_mates if b in self._busy]
            if blockers and not all(
                b in self._deferred_writes and txn.block < b for b in blockers
            ):
                # A group-mate's transaction is still in flight: its
                # requester installs a copy only at completion, after our
                # entry reset would have forgotten it.  NAK-retry until the
                # group is quiet.  Mutually-deferred grouped writes would
                # livelock, so the lowest block id among deferred writers
                # wins the tie.
                self._deferred_writes.add(txn.block)
                raise AllWaysBusy(f"group-mate of block {txn.block} busy")
            self._deferred_writes.discard(txn.block)
        else:
            group_mates = []
        inval_msgs = 0
        worst_ack = 0.0
        if targets:
            clusters = self._clusters
            messages = self._messages
            legs = self._legs
            legs_home = legs[home]
            issue = cfg.inval_issue_cycles
            service = cfg.inval_service_cycles
            serial_path = 0.0
            for i, t in enumerate(targets):
                clusters[t].invalidate_block(txn.block, txn_id=txn.txn_id)
                for mate in group_mates:
                    clusters[t].invalidate_if_clean(mate, txn_id=txn.txn_id)
                if t != home:
                    messages[_INVALIDATION] += 1
                    inval_msgs += 1
                if t != req:  # targets exclude req by contract
                    messages[_ACKNOWLEDGEMENT] += 1
                if serial:
                    # cache-based linked list: "each write produces a serial
                    # string of invalidations ... having to walk through the
                    # list, cache-by-cache" — one full hop+service per
                    # sharer before the next can start (§3.3)
                    prev = home if i == 0 else targets[i - 1]
                    serial_path += legs[prev][t] + service
                    worst_ack = max(worst_ack, serial_path + legs[t][req])
                else:
                    # memory-based directory: invalidations leave back to
                    # back, "as fast as the network can accept them" (§3.3)
                    ack = (i + 1) * issue + legs_home[t] + service + legs[t][req]
                    if ack > worst_ack:
                        worst_ack = ack
            if not serial:
                self._ctrl_free += len(targets) * issue
        self._stats.record_inval_event(_WRITE_EVENT, inval_msgs)
        if self._obs.enabled:
            self._trace_inval_round(
                _WRITE_EVENT, txn.block, inval_msgs, txn.txn_id
            )
        if machine.invariants is not None:
            # the writer collects one ack per target (targets exclude req)
            machine.invariants.on_inval_round(
                home=home,
                recipient=req,
                targets=targets,
                invals=inval_msgs,
                acks=len(targets),
            )
        if home != req:
            self._messages[_REPLY] += 1  # ownership (+inval count)

        line.dirty = True
        line.owner = req
        line.entry.reset()
        if group_mates:
            # The pooled entry also covered the writer's possible copies of
            # the group-mates (which were not invalidated); keep the writer
            # recorded so the directory stays conservative for them.
            line.entry.record_sharer(req)

        reply_path = cfg.bus_cycles + self._legs[home][req]
        ack_path = (cfg.dir_service_cycles + worst_ack) if targets else 0.0
        if self._obs.enabled:
            # inval_fanout is the latency the ack collection adds *beyond*
            # the direct ownership reply — the §6.2 overhead a coarse
            # vector's extra invalidations inflate
            txn.phases = _nonzero_phases(
                sparse_recall=delta,
                memory=cfg.bus_cycles,
                net_reply=self._legs[home][req],
                inval_fanout=max(reply_path, ack_path) - reply_path,
            )
        return delta + max(reply_path, ack_path)

    # -- writebacks and hints ------------------------------------------------------

    def _cancel_inflight_writeback(self, block: int, cluster: int) -> None:
        """Mark the cluster's pending writeback for this block obsolete.

        Called at every point the directory (re-)grants ownership of
        ``block`` to ``cluster``: any writeback the cluster issued *before*
        this grant belongs to a dead generation of the line and must never
        be accepted — under message reordering it could otherwise arrive
        after the grant, match ``dirty and owner == cluster``, and wrongly
        clean the directory (found by the repro.verify model checker).

        Also clears the writeback-buffer ghost now: the directory has
        logically absorbed the data, and the block is busy until this
        transaction completes, so no forward can need the ghost meanwhile.
        """
        key = (block, cluster)
        if self._cancelled_wb.get(key, 0) < self._wb_inflight.get(key, 0):
            self._cancelled_wb[key] = self._cancelled_wb.get(key, 0) + 1
        self._clusters[cluster].writeback_done(block)

    def _execute_writeback(self, txn: Transaction) -> float:
        cfg = self._cfg
        req = txn.requester
        key = (txn.block, req)
        remaining = self._wb_inflight.get(key, 0) - 1
        if remaining > 0:
            self._wb_inflight[key] = remaining
        else:
            self._wb_inflight.pop(key, None)
        pending_cancels = self._cancelled_wb.get(key, 0)
        if pending_cancels:
            # Obsoleted by a later ownership re-grant: drop silently.
            if pending_cancels == 1:
                del self._cancelled_wb[key]
            else:
                self._cancelled_wb[key] = pending_cancels - 1
            return cfg.dir_service_cycles
        line = self.store.lookup(txn.block)
        if line is not None and line.dirty and line.owner == req:
            line.dirty = False
            line.owner = None
            # no entry.reset(): empty for per-block stores while dirty, and
            # a pooled (shared-entry) store must keep its group-mates
            # A local bus read may have re-filled a cache from the
            # writeback buffer after this writeback left, so consult the
            # cluster's *current* state, not just the captured flag.
            still_shared = txn.still_shared or self._clusters[
                req
            ].copies_besides_wb(txn.block)
            # record the *resolved* flag so the traced dir.service event
            # tells conformance whether the cluster kept a clean copy
            txn.still_shared = still_shared
            if still_shared:
                # Another cache in the evicting cluster still holds the
                # block: keep the cluster recorded as a (clean) sharer.
                line.entry.record_sharer(req)
            else:
                self.store.release(txn.block)
        # else: stale writeback (ownership already moved on) — drop it.
        self._clusters[req].writeback_done(txn.block)
        return cfg.bus_cycles

    def _execute_hint(self, txn: Transaction) -> float:
        cfg = self._cfg
        line = self.store.lookup(txn.block)
        if line is not None and not line.dirty:
            line.entry.remove_sharer(txn.requester)
            if line.is_empty():
                self.store.release(txn.block)
        return cfg.dir_service_cycles

    # -- sparse replacement ----------------------------------------------------------

    def _process_sparse_evictions(
        self, evictions: List[Eviction], txn_id: Optional[int] = None
    ) -> float:
        """Invalidate all copies of replaced entries' blocks (RAC duty).

        Returns the latency penalty charged to the triggering transaction:
        the slot is only reusable once every acknowledgement has returned
        to the home's Remote Access Cache (§7).
        """
        if not evictions:
            return 0.0
        machine = self.machine
        cfg = self._cfg
        issue = cfg.inval_issue_cycles
        service = cfg.inval_service_cycles
        clusters = self._clusters
        messages = self._messages
        legs = self._legs
        legs_home = legs[self.cluster_id]
        home = self.cluster_id
        penalty = 0.0
        for ev in evictions:
            self._stats.sparse_replacements += 1
            inval_msgs = 0
            worst = 0.0
            for i, t in enumerate(ev.targets):
                clusters[t].invalidate_block(ev.block, txn_id=txn_id)
                if t != home:
                    messages[_INVALIDATION] += 1
                    messages[_ACKNOWLEDGEMENT] += 1
                    inval_msgs += 1
                ack = (i + 1) * issue + legs_home[t] + service + legs[t][home]
                if ack > worst:
                    worst = ack
            self._ctrl_free += len(ev.targets) * issue
            if machine.obs.enabled:
                evict_args: Dict[str, object] = {
                    "block": ev.block, "targets": len(ev.targets),
                    "nodes": sorted(ev.targets),
                }
                if txn_id is not None:
                    evict_args["txn_id"] = txn_id
                machine.obs.emit_now(
                    "dir.sparse_evict", comp="directory", tid=home,
                    args=evict_args,
                )
            if ev.targets:
                machine.stats.record_inval_event(InvalCause.SPARSE_REPL, inval_msgs)
                self._trace_inval_round(
                    InvalCause.SPARSE_REPL, ev.block, inval_msgs, txn_id
                )
            if machine.invariants is not None:
                # replacement acks also return to the home's RAC (§7)
                machine.invariants.on_inval_round(
                    home=home,
                    recipient=home,
                    targets=ev.targets,
                    invals=inval_msgs,
                    acks=inval_msgs,
                )
            penalty = max(penalty, worst)
        # The RAC entry tracking this recall holds the *slot* until every
        # acknowledgement has returned (§7): the triggering transaction
        # waits out `penalty`, but the controller itself stays available
        # to other blocks (DASH has multiple RAC entries), beyond the
        # per-invalidation issue occupancy charged above.
        return penalty
