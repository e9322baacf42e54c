"""Synchronization: DASH-style queue-based locks and a global barrier.

DASH keeps lock waiters in the directory (§7): a lock request travels to
the lock's home cluster; if the lock is held the requester is queued
there, and a release grants it to exactly one waiter — no spinning
traffic crosses the network.  With the full bit vector there is room to
track every waiting node; §7 notes that under the *coarse vector* the
directory only knows waiting regions, so a release must wake a whole
region and let its members race for the lock (slightly less efficient,
but still no machine-wide hot spot).  ``MachineConfig.coarse_lock_grant``
enables that behaviour for the synchronization ablation.

Barriers are centralized at a home cluster: arrivals are requests, the
last arrival triggers release replies to every participant.

Every continuation scheduled here is a *bound method* (or a processor's
bound resume) with its context passed positionally — never a closure —
so an in-flight machine can be checkpointed: pickle saves a bound
method as its owner plus the method name, which a closure cannot
provide (see :mod:`repro.machine.checkpoint` and the
``unpicklable-continuation`` lint rule).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Deque, Dict, List, Tuple

from repro.machine.messages import MsgClass

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.machine.system import DashSystem

Resume = Callable[[float], None]


@dataclass
class _LockState:
    held: bool = False
    holder: int = -1  # processor id
    waiters: Deque[Tuple[int, Resume]] = field(default_factory=deque)


@dataclass
class _BarrierState:
    arrived: int = 0
    waiters: List[Tuple[int, Resume]] = field(default_factory=list)


class SyncManager:
    """Lock and barrier service distributed across home clusters."""

    def __init__(self, machine: "DashSystem") -> None:
        self.machine = machine
        self._locks: Dict[int, _LockState] = {}
        self._barriers: Dict[int, _BarrierState] = {}

    # -- homes -----------------------------------------------------------

    def lock_home(self, lock_id: int) -> int:
        """Cluster managing a lock."""
        return lock_id % self.machine.config.num_clusters

    def barrier_home(self, barrier_id: int) -> int:
        """Cluster managing a barrier."""
        return barrier_id % self.machine.config.num_clusters

    # -- locks -----------------------------------------------------------

    def lock(self, proc_id: int, lock_id: int, resume: Resume) -> None:
        """Acquire: grant immediately if free, else queue at the home."""
        machine = self.machine
        cfg = machine.config
        home = self.lock_home(lock_id)
        cluster = machine.cluster_of_proc(proc_id)
        machine.count_msg(MsgClass.REQUEST, cluster, home)
        arrival = machine.events.now + machine.network.leg(cluster, home)
        machine.events.at(
            arrival + cfg.sync_service_cycles,
            self._lock_at_home, proc_id, lock_id, resume,
        )

    def _lock_at_home(self, proc_id: int, lock_id: int, resume: Resume) -> None:
        """The lock request reached its home cluster."""
        machine = self.machine
        cfg = machine.config
        home = self.lock_home(lock_id)
        cluster = machine.cluster_of_proc(proc_id)
        state = self._locks.setdefault(lock_id, _LockState())
        if not state.held:
            state.held = True
            state.holder = proc_id
            machine.stats.lock_acquires += 1
            machine.count_msg(MsgClass.REPLY, home, cluster)
            grant_time = (
                machine.events.now
                + cfg.sync_service_cycles
                + machine.network.leg(home, cluster)
            )
            machine.events.at(grant_time, resume, grant_time)
        else:
            state.waiters.append((proc_id, resume))

    def unlock(self, proc_id: int, lock_id: int, resume: Resume) -> None:
        """Release; the home grants the next waiter (or a whole region)."""
        machine = self.machine
        cfg = machine.config
        home = self.lock_home(lock_id)
        cluster = machine.cluster_of_proc(proc_id)
        machine.count_msg(MsgClass.REQUEST, cluster, home)
        arrival = machine.events.now + machine.network.leg(cluster, home)
        machine.events.at(
            arrival + cfg.sync_service_cycles, self._unlock_at_home, lock_id
        )
        # The releaser does not wait on the network round trip.
        resume_time = machine.events.now + 1.0
        machine.events.at(resume_time, resume, resume_time)

    def _unlock_at_home(self, lock_id: int) -> None:
        """The release reached the lock's home cluster."""
        home = self.lock_home(lock_id)
        state = self._locks.setdefault(lock_id, _LockState())
        state.held = False
        state.holder = -1
        if state.waiters:
            if self.machine.config.coarse_lock_grant:
                self._grant_region(lock_id, state, home)
            else:
                self._grant_one(lock_id, state, home)

    def _grant_one(self, lock_id: int, state: _LockState, home: int) -> None:
        machine = self.machine
        winner_proc, winner_resume = state.waiters.popleft()
        state.held = True
        state.holder = winner_proc
        machine.stats.lock_acquires += 1
        wcluster = machine.cluster_of_proc(winner_proc)
        machine.count_msg(MsgClass.REPLY, home, wcluster)
        grant_time = machine.events.now + machine.network.leg(home, wcluster)
        machine.events.at(grant_time, winner_resume, grant_time)

    def _grant_region(self, lock_id: int, state: _LockState, home: int) -> None:
        """Coarse-vector grant (§7): wake a whole region; one waiter wins.

        The losers' retries cost one extra request/reply round trip each
        before they are re-queued at the home.
        """
        machine = self.machine
        region = self._region_size()
        # All queued waiters in the winner's region are woken.
        winner_proc, winner_resume = state.waiters.popleft()
        winner_region = machine.cluster_of_proc(winner_proc) // region
        losers = [
            (p, r)
            for (p, r) in state.waiters
            if machine.cluster_of_proc(p) // region == winner_region
        ]
        for p, _ in losers:
            pcluster = machine.cluster_of_proc(p)
            # wake reply, failed re-acquire request, and its queue-ack
            machine.count_msg(MsgClass.REPLY, home, pcluster)
            machine.count_msg(MsgClass.REQUEST, pcluster, home)
        state.held = True
        state.holder = winner_proc
        machine.stats.lock_acquires += 1
        wcluster = machine.cluster_of_proc(winner_proc)
        machine.count_msg(MsgClass.REPLY, home, wcluster)
        grant_time = machine.events.now + machine.network.leg(home, wcluster)
        machine.events.at(grant_time, winner_resume, grant_time)

    def _region_size(self) -> int:
        scheme = self.machine.scheme
        return getattr(scheme, "region_size", 1)

    # -- barriers -----------------------------------------------------------

    def barrier(self, proc_id: int, barrier_id: int, resume: Resume) -> None:
        """Arrive; the last arrival releases every participant."""
        machine = self.machine
        cfg = machine.config
        home = self.barrier_home(barrier_id)
        cluster = machine.cluster_of_proc(proc_id)
        machine.count_msg(MsgClass.REQUEST, cluster, home)
        arrival = machine.events.now + machine.network.leg(cluster, home)
        machine.events.at(
            arrival + cfg.sync_service_cycles,
            self._barrier_at_home, proc_id, barrier_id, resume,
        )

    def _barrier_at_home(
        self, proc_id: int, barrier_id: int, resume: Resume
    ) -> None:
        """One barrier arrival reached the home cluster."""
        machine = self.machine
        cfg = machine.config
        home = self.barrier_home(barrier_id)
        state = self._barriers.setdefault(barrier_id, _BarrierState())
        state.arrived += 1
        state.waiters.append((proc_id, resume))
        machine.stats.barrier_waits += 1
        if state.arrived == machine.config.num_processors:
            release = machine.events.now + cfg.sync_service_cycles
            for p, r in state.waiters:
                pcluster = machine.cluster_of_proc(p)
                machine.count_msg(MsgClass.REPLY, home, pcluster)
                t = release + machine.network.leg(home, pcluster)
                machine.events.at(t, r, t)
            # Barrier ids are not reused by our workloads, but reset
            # defensively so a reused id behaves like a fresh barrier.
            del self._barriers[barrier_id]

    # -- diagnostics ---------------------------------------------------------

    def pending_waiters(self) -> int:
        """Processors parked on locks/barriers (for stuck-run reporting)."""
        locks = sum(len(s.waiters) for s in self._locks.values())
        bars = sum(len(s.waiters) for s in self._barriers.values())
        return locks + bars
