"""Per-layer attribution of one traced run, from class-level span wrappers.

:class:`LayerTrace` wraps simulator classes for the duration of a traced
run and restores them afterwards.  It must be installed before the
``DashSystem`` is built: controllers and processors bind some methods at
construction (the controller's ``_execute_kind`` dispatch dict, a
processor's write path).

Spans:

* every event-queue continuation is a span owned by the class of its
  bound method (``cb.__self__``), which separates the kernel, the
  directory controllers, the processors and the sync manager;
* ``EventQueue.run`` (the pop/dispatch loop) and ``at``/``after`` (the
  pushes) are the kernel's own spans;
* public calls into the caches (``DashSystem.access``, ``Cluster``), the
  directory store, the scheme's entries, the sync manager and the
  workload's op streams nest spans inside the continuation that made
  them.  ``Processor._mem_resume`` is wrapped too, because a directory
  completion calls it directly rather than through the queue.

A layer's self time is its span time minus its child spans: the clock is
read once at every boundary and the interval since the previous boundary
is charged to the layer on top of the span stack.  Counters are taken at
the same boundaries, so they are exact and repeat from run to run.
"""

from __future__ import annotations

import time
from collections import Counter
from typing import Callable, Dict, Iterable, List, Optional

from repro.core.sparse import FullMapDirectory, SparseDirectory
from repro.machine.cluster import Cluster
from repro.machine.directory import DirectoryController
from repro.machine.events import EventQueue
from repro.machine.processor import Processor
from repro.machine.sync import SyncManager
from repro.machine.system import DashSystem

LAYERS = ("other", "events", "processor", "apps", "cluster", "directory",
          "store", "scheme", "sync")
(OTHER, EVENTS, PROCESSOR, APPS, CLUSTER, DIRECTORY, STORE, SCHEME,
 SYNC) = range(len(LAYERS))

#: owner class of a continuation -> the layer its span is charged to
_OWNER_LAYER = {
    Processor: PROCESSOR,
    DirectoryController: DIRECTORY,
    SyncManager: SYNC,
    DashSystem: CLUSTER,
    Cluster: CLUSTER,
}

CLUSTER_METHODS = ("try_local", "install_from_directory", "invalidate_block",
                   "invalidate_if_clean", "downgrade_block", "has_copy",
                   "holds_dirty", "copies_besides_wb", "writeback_done")
STORE_METHODS = ("lookup", "get_or_allocate", "release")
ENTRY_METHODS = ("record_sharer", "remove_sharer", "invalidation_targets",
                 "targets_sorted", "reset", "is_empty")
SYNC_METHODS = ("lock", "unlock", "barrier")

_MISSING = object()


def _run_continuation(cb: Callable, args: tuple) -> None:
    cb(*args)


class _Stream:
    """An op stream whose ``__next__`` is a span of the apps layer."""

    __slots__ = ("_next",)

    def __init__(self, next_op: Callable[[], object]) -> None:
        self._next = next_op

    def __iter__(self) -> "_Stream":
        return self

    def __next__(self) -> object:
        return self._next()


class LayerTrace:
    """Self time, spans and boundary counters per layer for traced runs.

    Use as a context manager around building and running the systems to
    attribute; counters accumulate over every run made inside it.
    """

    def __init__(self, workload_classes: Iterable[type],
                 entry_classes: Iterable[type]) -> None:
        self.self_s: List[float] = [0.0] * len(LAYERS)
        #: calls per wrapped ``Class.method``, event continuations run per
        #: owning layer (``continuation.<layer>``), plus the observed
        #: counts (``submit.<kind>``, ``inval_useful``, ``targets``,
        #: ``store_evictions``)
        self.calls: Counter = Counter()
        self._stack: List[int] = []
        self._state = [OTHER, 0.0]  # layer on top, time of last boundary
        self._saved: list = []
        self._workload_classes = tuple(dict.fromkeys(workload_classes))
        self._entry_classes = tuple(dict.fromkeys(entry_classes))

    # -- span bookkeeping -----------------------------------------------

    def _span(self, layer: int, fn: Callable, key: str,
              observe: Optional[Callable] = None) -> Callable:
        """``fn`` wrapped as a span of ``layer`` counted under ``key``."""
        self_s, stack, state, calls = (self.self_s, self._stack, self._state,
                                       self.calls)
        clock = time.perf_counter

        def span(*args, **kwargs):
            now = clock()
            self_s[state[0]] += now - state[1]
            stack.append(state[0])
            state[0] = layer
            state[1] = now
            calls[key] += 1
            try:
                result = fn(*args, **kwargs)
                if observe is not None:
                    observe(args, result)
                return result
            finally:
                now = clock()
                self_s[layer] += now - state[1]
                state[0] = stack.pop()
                state[1] = now

        return span

    # -- installation ----------------------------------------------------

    def _patch(self, cls: type, name: str, layer: int,
               observe: Optional[Callable] = None) -> None:
        original = cls.__dict__.get(name, _MISSING)
        wrapped = self._span(layer, getattr(cls, name),
                             f"{cls.__name__}.{name}", observe)
        setattr(cls, name, wrapped)
        self._saved.append((cls, name, original))

    def _patch_events(self) -> None:
        # the heap entry a traced push stores runs ``cb(*args)`` as a span
        runners = [self._span(layer, _run_continuation,
                              f"continuation.{LAYERS[layer]}")
                   for layer in range(len(LAYERS))]
        runner_of: Dict[type, Callable] = {}

        def runner_for(cb) -> Callable:
            owner = getattr(cb, "__self__", None)
            if owner is None:  # functools.partial over a bound method
                owner = getattr(getattr(cb, "func", None), "__self__", None)
            owner_cls = type(owner)
            runner = runner_of.get(owner_cls)
            if runner is None:
                layer = next((lay for cls, lay in _OWNER_LAYER.items()
                              if issubclass(owner_cls, cls)), OTHER)
                runner = runner_of[owner_cls] = runners[layer]
            return runner

        push_at = EventQueue.at
        push_after = EventQueue.after

        def at(queue, when, cb, *args):
            push_at(queue, when, runner_for(cb), cb, args)

        def after(queue, delay, cb, *args):
            push_after(queue, delay, runner_for(cb), cb, args)

        for name, fn in (("at", at), ("after", after)):
            self._saved.append((EventQueue, name, EventQueue.__dict__[name]))
            setattr(EventQueue, name,
                    self._span(EVENTS, fn, f"EventQueue.{name}"))
        self._patch(EventQueue, "run", EVENTS)

    def _patch_streams(self) -> None:
        for cls in self._workload_classes:
            make_stream = cls.stream
            span = self._span

            def stream(workload, proc_id, _make=make_stream):
                ops = _make(workload, proc_id)
                return _Stream(span(APPS, ops.__next__, "stream.next"))

            self._saved.append((cls, "stream", cls.__dict__.get("stream",
                                                                _MISSING)))
            cls.stream = stream

    def install(self) -> None:
        """Wrap every layer boundary (call before building the system)."""
        calls = self.calls

        def count_submit(args, _result):
            calls["submit." + args[1].kind] += 1

        def count_useful(_args, had_copy):
            if had_copy:
                calls["inval_useful"] += 1

        def count_targets(_args, targets):
            calls["targets"] += len(targets)

        def count_evictions(_args, result):
            calls["store_evictions"] += len(result[1])

        self._patch_events()
        self._patch_streams()
        self._patch(Processor, "_mem_resume", PROCESSOR)
        self._patch(DashSystem, "access", CLUSTER)
        for name in CLUSTER_METHODS:
            self._patch(Cluster, name, CLUSTER,
                        count_useful if name == "invalidate_block" else None)
        self._patch(DirectoryController, "submit", DIRECTORY, count_submit)
        if hasattr(DirectoryController, "_retry_later"):
            self._patch(DirectoryController, "_retry_later", DIRECTORY)
        for cls in (FullMapDirectory, SparseDirectory):
            for name in STORE_METHODS:
                self._patch(cls, name, STORE,
                            count_evictions if name == "get_or_allocate"
                            else None)
        for cls in self._entry_classes:
            for name in ENTRY_METHODS:
                self._patch(cls, name, SCHEME,
                            count_targets if name == "targets_sorted" else None)
        for name in SYNC_METHODS:
            self._patch(SyncManager, name, SYNC)
        self._state[:] = [OTHER, time.perf_counter()]

    def remove(self) -> None:
        """Restore every wrapped attribute exactly as it was."""
        self.self_s[self._state[0]] += time.perf_counter() - self._state[1]
        while self._saved:
            cls, name, original = self._saved.pop()
            if original is _MISSING:
                delattr(cls, name)
            else:
                setattr(cls, name, original)

    def __enter__(self) -> "LayerTrace":
        try:
            self.install()
        except BaseException:
            self.remove()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self.remove()

    # -- read-out --------------------------------------------------------

    def count(self, cls: type, *names: str) -> int:
        """Total calls to the named wrapped methods of ``cls``."""
        return sum(self.calls[f"{cls.__name__}.{n}"] for n in names)

    def continuations(self, *layers: str) -> int:
        """Event continuations run, owned by the named layers (default: all)."""
        return sum(self.calls[f"continuation.{layer}"]
                   for layer in (layers or LAYERS))

    def entry_calls(self, *names: str) -> int:
        """Total calls to the named scheme-entry methods (default: all)."""
        return sum(self.count(cls, *(names or ENTRY_METHODS))
                   for cls in self._entry_classes)
