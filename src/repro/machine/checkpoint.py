"""Crash-consistent simulation checkpoints: snapshot/restore of live runs.

A :class:`SimCheckpoint` captures the *entire* in-flight machine — the
event queue and its continuations, every directory entry, the cache
arrays, in-flight transactions, RNG states, statistics, fault and
invariant state, and (when tracing) the observability buffers — so a
run killed at any cycle can be restored and continued to a result
byte-identical to the uninterrupted run.

Serialization
-------------

The payload is the default pickle of the system's attribute dict.  The
objects the caller supplies — the system itself, its config, its
workload, its tracer and that tracer's metrics registry — are pickled
*by reference* (by name, through ``reducer_override``) and resolve
against the restore target (``find_class``), so every back-reference (``Processor.machine``, the
controllers' tracer handles, ``InvariantChecker.system``) lands on the
caller's objects.  Pickle's memo keeps shared identity: a transaction
referenced from the heap, a pending queue and the invariant checker is
restored as one object.

Two pieces of state are not plain pickling.  Processor trace streams
are generators: a :class:`~repro.machine.processor.Processor` pickles
without its stream, and a restore rebuilds it from
``workload.stream(p)`` fast-forwarded by ``ops_consumed``.  The
tracer's contents travel next to the machine, minus checkpoint
instrumentation (see the determinism contract below).

Event-queue continuations are bound methods (or ``functools.partial``
over one), which pickle as owner plus method name.  The
``unpicklable-continuation`` lint rule rejects lambdas and closures in
``machine/`` statically; one reaching the heap anyway fails capture
with :class:`UnregisteredContinuationError`.

Payload bytes are canonical, so a restored machine re-captures to the
identical payload.  Sets pickle rebuilt in sorted order (the
``__getstate__`` of directory controllers and processor caches): a
set's iteration order depends on its insertion history, which a restore
does not replay.  And a capture pickles, loads and pickles again: the
live graph shares some equal strings that a loaded graph cannot, since
unpickling interns attribute names but not attribute values.

File format
-----------

Line 1 is a JSON header: magic, schema version, the writing build's
code fingerprint, the machine config, workload/scheme identity, clock
and event counts, payload length and SHA-256, and caller metadata.  The
pickled payload follows as raw bytes.  Files are written atomically
(``<path>.tmp`` + ``os.replace``) and loads verify length and digest,
so a torn write is detected as :class:`CheckpointIntegrityError`
instead of a garbage restore.  Restores are refused across schema
versions, code fingerprints, or differing machine configs — a
checkpoint is a continuation of one exact simulation, not a portable
trace.

Determinism contract
--------------------

Checkpoint instrumentation (``ckpt.*`` trace events, ``ckpt_*``
counters) is *excluded* from captured tracer state, so a checkpoint's
payload does not depend on how many checkpoints preceded it, and a
resumed run's simulation state is byte-identical to the uninterrupted
run's (see ``docs/robustness.md`` for the full contract).
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import pickle
from itertools import islice
from types import SimpleNamespace
from typing import TYPE_CHECKING, Any, Dict, Optional

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.machine.system import DashSystem

#: checkpoint file format version; restores are refused across versions
CKPT_SCHEMA = 2

#: first bytes of every checkpoint header line
MAGIC = "repro-ckpt"

#: pickle protocol for the payload (4 = stable since Python 3.4)
_PICKLE_PROTOCOL = 4


class CheckpointError(RuntimeError):
    """Base class for checkpoint capture/restore failures."""


class CheckpointIntegrityError(CheckpointError):
    """The file on disk is torn, truncated, or corrupted."""


class CheckpointSchemaError(CheckpointError):
    """The file was written by an incompatible schema or build."""


class UnregisteredContinuationError(CheckpointError):
    """The live machine holds a callable pickle cannot save (a lambda or
    closure scheduled where a bound method belongs)."""


def _current_fingerprint() -> str:
    # Imported lazily: analysis/ imports machine/, never the reverse.
    from repro.analysis.cache import code_fingerprint

    return code_fingerprint()


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# ---------------------------------------------------------------------------
# pickling against one system


def _references(system: "DashSystem") -> Dict[str, object]:
    """The caller-supplied objects a payload names instead of containing."""
    return {
        "system": system,
        "config": system.config,
        "workload": system.workload,
        "obs": system.obs,
        "metrics": system.obs.metrics,
    }


def _reference(name: str) -> Any:
    """Stand-in the payload calls for a referenced object; a restore's
    unpickler swaps in the target's object instead (``find_class``)."""
    raise CheckpointError(f"{name!r} is resolved only by a restore")


class _Pickler(pickle.Pickler):
    def __init__(self, file: io.BytesIO, system: "DashSystem") -> None:
        super().__init__(file, protocol=_PICKLE_PROTOCOL)
        self._names = {id(obj): name for name, obj in _references(system).items()}

    def reducer_override(self, obj: Any) -> Any:
        # Consulted only for instances of non-builtin classes (a
        # persistent_id hook would run for every int and str as well,
        # and triples capture time).
        name = self._names.get(id(obj))
        if name is None:
            return NotImplemented
        return _reference, (name,)


class _Unpickler(pickle.Unpickler):
    def __init__(self, file: io.BytesIO, system: "DashSystem") -> None:
        super().__init__(file)
        self._refs = _references(system)

    def find_class(self, module: str, name: str) -> Any:
        if module == __name__ and name == "_reference":
            return self._refs.__getitem__
        return super().find_class(module, name)


def _tracer_state(obs: Any) -> Optional[Dict[str, Any]]:
    """The tracer's contents, excluding checkpoint instrumentation.

    ``ckpt.*`` events and ``ckpt_*`` metrics record *harness* activity
    (how many times this process saved/restored), not simulation state;
    excluding them keeps a checkpoint's payload independent of how many
    checkpoints preceded it.
    """
    if not obs.enabled:
        return None
    ckpt_emitted = sum(
        n for name, n in obs.counts.items() if name.startswith("ckpt.")
    )
    metrics = obs.metrics
    return {
        "capacity": obs.capacity,
        "buf": [e for e in obs if not e.name.startswith("ckpt.")],
        "emitted": obs.emitted - ckpt_emitted,
        "counts": {
            name: n for name, n in obs.counts.items()
            if not name.startswith("ckpt.")
        },
        "comp_counts": {
            comp: n for comp, n in obs.comp_counts.items() if comp != "ckpt"
        },
        "counters": {
            name: c for name, c in metrics.counters.items()
            if not name.startswith("ckpt_")
        },
        "gauges": metrics.gauges,
        "histograms": metrics.histograms,
    }


def _check_tracer(obs: Any, state: Optional[Dict[str, Any]]) -> None:
    if state is None:
        if obs.enabled:
            raise CheckpointError(
                "checkpoint was written without tracing but this machine "
                "has a tracer attached; restore with tracing disabled"
            )
    elif not obs.enabled:
        raise CheckpointError(
            "checkpoint was written with tracing enabled but this machine "
            "has no tracer; attach one with the same capacity"
        )
    elif obs.capacity != state["capacity"]:
        raise CheckpointError(
            f"tracer capacity mismatch: checkpoint has {state['capacity']}, "
            f"machine has {obs.capacity}"
        )


def _restore_tracer(obs: Any, state: Dict[str, Any]) -> None:
    obs._buf.clear()
    obs._buf.extend(state["buf"])
    obs.emitted = state["emitted"]
    for owner, names in (
        (obs, ("counts", "comp_counts")),
        (obs.metrics, ("counters", "gauges", "histograms")),
    ):
        for name in names:
            table = getattr(owner, name)
            table.clear()
            table.update(state[name])


def _pickle(system: "DashSystem", state: Dict[str, Any]) -> bytes:
    buf = io.BytesIO()
    _Pickler(buf, system).dump(state)
    return buf.getvalue()


def _unpickle(system: "DashSystem", payload: bytes) -> Dict[str, Any]:
    state: Dict[str, Any] = _Unpickler(io.BytesIO(payload), system).load()
    return state


def _dumps(system: "DashSystem") -> bytes:
    """Pickle the live machine (plus tracer contents) against ``system``.

    The first pickle is loaded and pickled again: the live graph shares
    some equal strings that a loaded graph cannot (unpickling interns
    attribute names but not attribute values), so only a loaded graph's
    bytes are a fixed point of restore + re-capture.  The system's
    attributes travel as a namespace, not a dict, for the same reason:
    loading interns their names, as the restore target's already are.
    """
    if system.trace_hook is not None:
        raise CheckpointError(
            "cannot checkpoint a run with an attached trace hook "
            "(interleaving recorders are not serializable)"
        )
    state = {
        "machine": SimpleNamespace(**vars(system)),
        "obs": _tracer_state(system.obs),
    }
    try:
        first = _pickle(system, state)
    except (pickle.PicklingError, TypeError, AttributeError) as exc:
        raise UnregisteredContinuationError(
            f"cannot checkpoint: the machine state does not pickle ({exc}); "
            f"the machine layer must schedule bound methods, never lambdas "
            f"or closures (see the unpicklable-continuation lint rule)"
        ) from exc
    return _pickle(system, _unpickle(system, first))


def _restore(system: "DashSystem", payload: bytes) -> None:
    """Fill a freshly built system from a payload; on failure the target
    is left untouched."""
    if system.events.events_run or system.events._heap or system.processors:
        raise CheckpointError(
            "restore target must be a freshly constructed DashSystem "
            "(its run() has already been started)"
        )
    if system.trace_hook is not None:
        raise CheckpointError(
            "cannot restore into a system with an attached trace hook"
        )
    try:
        state = _unpickle(system, payload)
    except Exception as exc:  # pickle raises a zoo of types
        raise CheckpointIntegrityError(
            f"checkpoint payload does not unpickle: {exc!r}"
        ) from exc
    _check_tracer(system.obs, state["obs"])
    machine = vars(state["machine"])
    # fresh streams fast-forwarded to the saved cursors (the Workload
    # contract guarantees stream(p) replays identically)
    for proc in machine["processors"]:
        stream = system.workload.stream(proc.proc_id)
        consumed = proc.ops_consumed
        if consumed:
            next(islice(stream, consumed - 1, consumed), None)
        proc._stream = stream
    vars(system).update(machine)
    if state["obs"] is not None:
        _restore_tracer(system.obs, state["obs"])


# ---------------------------------------------------------------------------
# the on-disk artifact


class SimCheckpoint:
    """One captured machine state plus its self-describing header."""

    def __init__(self, header: Dict[str, Any], payload: bytes) -> None:
        self.header = header
        self._payload = payload

    # -- capture -----------------------------------------------------------

    @classmethod
    def capture(
        cls, system: "DashSystem", *, meta: Optional[Dict[str, Any]] = None
    ) -> "SimCheckpoint":
        """Snapshot a live system (does not emit any instrumentation)."""
        payload = _dumps(system)
        header = {
            "magic": MAGIC,
            "schema": CKPT_SCHEMA,
            "code_fingerprint": _current_fingerprint(),
            "config": system.config.cache_key_fields(),
            "workload": getattr(
                system.workload, "name", type(system.workload).__name__
            ),
            "scheme": system.scheme.name,
            "now": system.events.now,
            "events_run": system.events.events_run,
            "events_pending": len(system.events),
            "payload_bytes": len(payload),
            "payload_sha256": _sha256(payload),
            "meta": dict(meta) if meta else {},
        }
        return cls(header, payload)

    # -- persistence -------------------------------------------------------

    def payload(self) -> bytes:
        """The pickled state blob (what the header digests)."""
        return self._payload

    def save(self, path: str) -> int:
        """Atomically write ``<path>`` (tmp + rename); returns bytes written.

        The temporary file is ``<path>.tmp`` — for the conventional
        ``*.ckpt`` checkpoint names that yields ``*.ckpt.tmp``, which the
        result cache's orphan sweep garbage-collects if a worker dies
        between write and rename.
        """
        payload = self._payload
        header_line = (
            json.dumps(self.header, sort_keys=True, separators=(",", ":"))
            + "\n"
        ).encode("utf-8")
        tmp = f"{path}.tmp"
        with open(tmp, "wb") as fh:
            fh.write(header_line)
            fh.write(payload)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
        return len(header_line) + len(payload)

    # -- restore -----------------------------------------------------------

    def restore_into(self, system: "DashSystem") -> None:
        """Restore onto a fresh system, gating on build and config identity."""
        fingerprint = _current_fingerprint()
        if self.header.get("code_fingerprint") != fingerprint:
            raise CheckpointSchemaError(
                "checkpoint was written by a different build of the "
                "simulator (code fingerprint "
                f"{self.header.get('code_fingerprint', '?')[:12]} != "
                f"{fingerprint[:12]}); continuation across code changes "
                "is undefined — re-run the point from scratch"
            )
        config_fields = system.config.cache_key_fields()
        if config_fields != self.header.get("config"):
            saved = self.header.get("config") or {}
            diff = sorted(
                k
                for k in set(saved) | set(config_fields)
                if saved.get(k) != config_fields.get(k)
            )
            raise CheckpointError(
                f"machine config differs from the checkpoint's in fields "
                f"{diff}; a checkpoint only continues the exact "
                f"configuration that wrote it"
            )
        _restore(system, self._payload)


def read_header(path: str) -> Dict[str, Any]:
    """Parse and validate a checkpoint file's JSON header line only."""
    with open(path, "rb") as fh:
        line = fh.readline()
    try:
        header = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, ValueError) as exc:
        raise CheckpointIntegrityError(
            f"{path}: not a checkpoint file (unparsable header)"
        ) from exc
    if not isinstance(header, dict) or header.get("magic") != MAGIC:
        raise CheckpointIntegrityError(
            f"{path}: not a checkpoint file (bad magic)"
        )
    if header.get("schema") != CKPT_SCHEMA:
        raise CheckpointSchemaError(
            f"{path}: checkpoint schema {header.get('schema')!r} is not "
            f"readable by this build (expects {CKPT_SCHEMA})"
        )
    return header


def load_checkpoint(path: str) -> SimCheckpoint:
    """Load and integrity-check a checkpoint file.

    Raises :class:`CheckpointIntegrityError` on torn or corrupted files
    (length or SHA-256 mismatch) and :class:`CheckpointSchemaError` on
    unreadable schema versions.  The payload is unpickled only by
    :meth:`SimCheckpoint.restore_into` (it names objects of the restore
    target), after the code-fingerprint gate, so headers of foreign
    builds can still be inspected.
    """
    header = read_header(path)
    with open(path, "rb") as fh:
        fh.readline()  # header line, already parsed
        payload = fh.read()
    expected_bytes = header.get("payload_bytes")
    if len(payload) != expected_bytes:
        raise CheckpointIntegrityError(
            f"{path}: torn checkpoint (payload is {len(payload)} bytes, "
            f"header promises {expected_bytes})"
        )
    if _sha256(payload) != header.get("payload_sha256"):
        raise CheckpointIntegrityError(
            f"{path}: corrupted checkpoint (payload SHA-256 mismatch)"
        )
    return SimCheckpoint(header, payload)


def verify_checkpoint(path: str) -> Dict[str, Any]:
    """Full verification pass for the ``repro ckpt verify`` CLI.

    Returns the header augmented with a ``fingerprint_match`` flag;
    integrity failures raise as in :func:`load_checkpoint`.
    """
    ckpt = load_checkpoint(path)
    header = dict(ckpt.header)
    header["fingerprint_match"] = (
        header.get("code_fingerprint") == _current_fingerprint()
    )
    return header
