"""Checkpoint/restart for REMD runs: cycle boundaries and quiesce points.

A checkpoint is a versioned JSON snapshot of everything an EMM needs to
continue a simulation exactly where it stopped:

* full replica state — coordinates, window indices, per-cycle history
  (including sampled trajectories), failure counts;
* exchange statistics, accumulated cycle timings and swap proposals;
* core-second accounting (MD + exchange) and failure/relaunch totals;
* the state of every named RNG stream (AMM registry, failure injector,
  transient staging faults), so the continued run draws the exact random
  sequences the uninterrupted run would have;
* the observability state (metric values, raw histogram samples, finished
  spans, the unit trace, recorded fault events), so a resumed run's
  manifest diffs all-zero against the uninterrupted run's.

Restart rebuilds the stack from the same configuration (enforced via the
config hash), drives the fresh pilot through activation, replays the
virtual clock to the checkpoint time, and overwrites the EMM's state —
after which the resumed run is bit-identical to the uninterrupted one
(asserted by ``tests/integration/test_resume.py``).  The event-clock
replay works because a checkpoint is taken at a quiet point: no units are
in flight, so the only pending events (walltime expiry, the deterministic
fault schedule) regenerate identically from the seed.

Two kinds of quiet point exist, one per execution pattern:

* **synchronous** — every cycle boundary is naturally quiet (schema v1
  checkpoints were exactly these, and still load);
* **asynchronous** — the EMM *induces* one via the quiesce protocol
  (:class:`~repro.core.emm.AsynchronousEMM`): stop launching, drain
  in-flight units, capture, resume.  Schema v2 adds the ``pattern`` tag
  and the ``async_state`` block (per-replica progress counters, deferred
  launch queue, exchange-candidate pool, window-timer phase) that the
  async event loop needs to rebuild itself mid-stream.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.replica import CycleRecord, Replica, ReplicaStatus
from repro.core.results import CycleTiming
from repro.core.exchange.base import SwapProposal
from repro.obs.manifest import config_hash

#: Bump on any incompatible change to the checkpoint layout.
SCHEMA_VERSION = 2

#: Versions :func:`Checkpoint.from_json` can read.  v1 (cycle-boundary,
#: synchronous-only, no obs blob) upgrades in memory on load.
SUPPORTED_VERSIONS = (1, 2)

#: Required keys of the ``async_state`` block of an asynchronous snapshot.
_ASYNC_STATE_KEYS = (
    "cycles_done",
    "md_attempts",
    "pool",
    "deferred",
    "sweep",
    "rid_next",
    "n_quiesces",
)


class CheckpointError(RuntimeError):
    """Raised for unreadable, incompatible or mismatched checkpoints."""


def _json_default(obj):
    """Coerce numpy scalars/arrays left in runtime state to JSON types."""
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON-serializable: {type(obj).__name__}")


#: values ``_json_native`` passes through untouched
_JSON_LEAVES = frozenset((str, int, float, bool, type(None)))


def _json_native(obj):
    """``obj`` with every dict key turned into the string JSON writes for it.

    ``json.dumps`` orders int keys numerically under ``sort_keys`` but
    writes them as strings, which reload and sort as text; ``2 < 10``
    while ``"10" < "2"``.  Hashing this form instead of the runtime one
    keeps the content checksum stable across the save/load round trip.
    ``json.dumps(key)`` is the string JSON writes for any key it
    accepts.  Containers are copied (tuples become lists, as JSON has
    them); leaves are shared.
    """
    if isinstance(obj, dict):
        return {
            (k if type(k) is str else json.dumps(k)): (
                v if type(v) in _JSON_LEAVES else _json_native(v)
            )
            for k, v in obj.items()
        }
    if isinstance(obj, (list, tuple)):
        return [v if type(v) in _JSON_LEAVES else _json_native(v) for v in obj]
    return obj


def _replica_to_dict(rep: Replica) -> Dict:
    return {
        "rid": rep.rid,
        "coords": [float(c) for c in rep.coords],
        "param_indices": dict(rep.param_indices),
        "status": rep.status.value,
        "cycle": rep.cycle,
        "last_energies": {k: float(v) for k, v in rep.last_energies.items()},
        "n_failures": rep.n_failures,
        "cores": rep.cores,
        "history": [
            {
                "cycle": rec.cycle,
                "dimension": rec.dimension,
                "param_indices": dict(rec.param_indices),
                "potential_energy": rec.potential_energy,
                "restraint_energy": rec.restraint_energy,
                "torsional_energy": rec.torsional_energy,
                "partner": rec.partner,
                "accepted": rec.accepted,
                "failed": rec.failed,
                "trajectory": (
                    rec.trajectory.tolist()
                    if rec.trajectory is not None
                    else None
                ),
            }
            for rec in rep.history
        ],
    }


def _replica_from_dict(data: Dict) -> Replica:
    rep = Replica(
        rid=int(data["rid"]),
        coords=np.array(data["coords"], dtype=float),
        param_indices={str(k): int(v) for k, v in data["param_indices"].items()},
        status=ReplicaStatus(data["status"]),
        cycle=int(data["cycle"]),
        last_energies={
            str(k): float(v) for k, v in data["last_energies"].items()
        },
        n_failures=int(data["n_failures"]),
        cores=int(data["cores"]),
    )
    for raw in data["history"]:
        rep.history.append(
            CycleRecord(
                cycle=int(raw["cycle"]),
                dimension=raw["dimension"],
                param_indices={
                    str(k): int(v) for k, v in raw["param_indices"].items()
                },
                potential_energy=float(raw["potential_energy"]),
                restraint_energy=float(raw["restraint_energy"]),
                torsional_energy=float(raw["torsional_energy"]),
                partner=raw["partner"],
                accepted=bool(raw["accepted"]),
                failed=bool(raw["failed"]),
                trajectory=(
                    np.array(raw["trajectory"], dtype=float)
                    if raw["trajectory"] is not None
                    else None
                ),
            )
        )
    return rep


def _capture_rng(emm) -> Dict[str, object]:
    rng_blob: Dict[str, object] = {"amm": emm.amm.rng.state_dict()}
    failure_model = emm.session.failure_model
    if failure_model is not None and getattr(failure_model, "rng", None) is not None:
        rng_blob["failures"] = failure_model.rng.bit_generator.state
    fault_domain = getattr(emm.session, "fault_domain", None)
    if fault_domain is not None and fault_domain.staging is not None:
        rng_blob["staging"] = fault_domain.staging.rng.bit_generator.state
    # Gray-failure streams.  The slowdown stream needs no capture: it is
    # fully consumed at first pilot activation, which the restore replay
    # re-runs from the seed, reproducing the same dilation map.
    if fault_domain is not None and fault_domain._hang_rng is not None:
        rng_blob["hangs"] = fault_domain._hang_rng.bit_generator.state
    watchdog = getattr(emm.session, "watchdog", None)
    if watchdog is not None and watchdog.retry.rng is not None:
        rng_blob["watchdog_backoff"] = watchdog.retry.rng.bit_generator.state
    return rng_blob


def _capture_obs(emm) -> Optional[Dict[str, object]]:
    """Observability state: metrics, spans, unit trace, fault log.

    None when the registry is disabled (``REPRO_OBS=0``) — restoring then
    degrades gracefully to EMM-state-only resume.
    """
    if not emm.metrics.enabled:
        return None
    tracer = emm.session.tracer
    fault_domain = getattr(emm.session, "fault_domain", None)
    blob = {
        "registry": emm.metrics.state_dict(),
        "tracer": tracer.state_dict() if tracer is not None else [],
        "fault_events": (
            [e.to_dict() for e in fault_domain.events]
            if fault_domain is not None
            else []
        ),
    }
    ladder = getattr(emm, "ladder", None)
    if ladder is not None:
        blob["ladder"] = ladder.state_dict()
    return blob


def _capture_watchdog(emm) -> Optional[Dict[str, object]]:
    watchdog = getattr(emm.session, "watchdog", None)
    if watchdog is None:
        return None
    return watchdog.state_dict()


def _capture_accounting(emm) -> Dict[str, float]:
    return {
        "md_core_seconds": emm.md_core_seconds,
        "exchange_core_seconds": emm.exchange_core_seconds,
        "n_failures": emm.n_failures,
        "n_relaunches": emm.n_relaunches,
        "n_retired": emm.n_retired,
        "n_spawned": emm.n_spawned,
    }


@dataclass
class Checkpoint:
    """One quiet-point snapshot of a run (cycle boundary or quiesce)."""

    config_hash: str
    title: str
    #: first cycle the resumed run executes (synchronous pattern; for the
    #: asynchronous pattern this is the least-progressed replica's next
    #: cycle, informational only)
    next_cycle: int
    t_start: float
    #: virtual time of the snapshot (the quiet point)
    t_now: float
    replicas: List[Dict] = field(default_factory=list)
    exchange_stats: Dict[str, Dict] = field(default_factory=dict)
    timings: List[Dict] = field(default_factory=list)
    proposals: List[Dict] = field(default_factory=list)
    accounting: Dict[str, float] = field(default_factory=dict)
    rng: Dict[str, object] = field(default_factory=dict)
    staging: Dict[str, object] = field(default_factory=dict)
    #: which EMM took the snapshot: "synchronous" | "asynchronous"
    pattern: str = "synchronous"
    #: async event-loop state (quiesce snapshots only)
    async_state: Optional[Dict[str, object]] = None
    #: observability state (metrics/spans/trace/faults); None when obs off
    obs: Optional[Dict[str, object]] = None
    #: watchdog supervision state (learned cohort durations); None when
    #: the watchdog is disabled
    watchdog_state: Optional[Dict[str, object]] = None
    #: sha256 over the canonical JSON dump (sans this field); verified on
    #: load so silent on-disk corruption fails loudly instead of
    #: resuming from garbage.  None in pre-checksum snapshots.
    checksum: Optional[str] = None
    schema_version: int = SCHEMA_VERSION

    # -- capture -------------------------------------------------------------

    @classmethod
    def capture(
        cls,
        emm,
        next_cycle: int,
        t_start: float,
        timings: List[CycleTiming],
        proposals: List[SwapProposal],
    ) -> "Checkpoint":
        """Snapshot ``emm`` at a cycle boundary (``next_cycle`` not yet run)."""
        return cls(
            config_hash=config_hash(emm.config),
            title=emm.config.title,
            next_cycle=next_cycle,
            t_start=t_start,
            t_now=emm.session.now,
            replicas=[_replica_to_dict(r) for r in emm.replicas],
            exchange_stats={
                name: {"attempted": s.attempted, "accepted": s.accepted}
                for name, s in emm.amm.exchange_stats.items()
            },
            timings=[asdict(t) for t in timings],
            proposals=[asdict(p) for p in proposals],
            accounting=_capture_accounting(emm),
            rng=_capture_rng(emm),
            staging=emm.session.staging_area.snapshot(),
            pattern="synchronous",
            obs=_capture_obs(emm),
            watchdog_state=_capture_watchdog(emm),
        )

    @classmethod
    def capture_async(
        cls,
        emm,
        *,
        t_start: float,
        timings: List[CycleTiming],
        proposals: List[SwapProposal],
        async_state: Dict[str, object],
    ) -> "Checkpoint":
        """Snapshot ``emm`` at a quiesce point (async pattern).

        Must be called at the induced quiet point — nothing in flight, no
        exchange in progress — so the clock replay on restore sees the
        same pending-event picture the capture did.  ``async_state`` is
        the event loop's own progress block (see
        :class:`~repro.core.emm.AsynchronousEMM`).
        """
        missing = [k for k in _ASYNC_STATE_KEYS if k not in async_state]
        if missing:
            raise CheckpointError(
                f"async_state is missing keys: {', '.join(missing)}"
            )
        cycles_done = async_state["cycles_done"]
        next_cycle = min(cycles_done.values()) if cycles_done else 0
        return cls(
            config_hash=config_hash(emm.config),
            title=emm.config.title,
            next_cycle=int(next_cycle),
            t_start=t_start,
            t_now=emm.session.now,
            replicas=[_replica_to_dict(r) for r in emm.replicas],
            exchange_stats={
                name: {"attempted": s.attempted, "accepted": s.accepted}
                for name, s in emm.amm.exchange_stats.items()
            },
            timings=[asdict(t) for t in timings],
            proposals=[asdict(p) for p in proposals],
            accounting=_capture_accounting(emm),
            rng=_capture_rng(emm),
            staging=emm.session.staging_area.snapshot(),
            pattern="asynchronous",
            async_state=dict(async_state),
            obs=_capture_obs(emm),
            watchdog_state=_capture_watchdog(emm),
        )

    # -- (de)serialization ---------------------------------------------------

    @staticmethod
    def _content_checksum(data: Dict[str, object]) -> str:
        """sha256 of the canonical dump with the checksum field removed."""
        blob = {k: v for k, v in data.items() if k != "checksum"}
        return hashlib.sha256(
            json.dumps(blob, default=_json_default, sort_keys=True).encode()
        ).hexdigest()

    def to_json(self) -> str:
        """JSON text form (floats at full ``repr`` precision, so times and
        coordinates round-trip bit-exactly), stamped with the content
        checksum."""
        data = _json_native(
            {f.name: getattr(self, f.name) for f in fields(self)}
        )
        data["checksum"] = self._content_checksum(data)
        return json.dumps(data, default=_json_default, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "Checkpoint":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise CheckpointError(f"invalid checkpoint JSON: {exc}") from None
        if not isinstance(data, dict):
            raise CheckpointError("checkpoint must be a JSON object")
        version = data.get("schema_version")
        if version not in SUPPORTED_VERSIONS:
            raise CheckpointError(
                f"checkpoint schema version {version!r} is not supported "
                f"(this build reads versions "
                f"{', '.join(str(v) for v in SUPPORTED_VERSIONS)})"
            )
        if version == 1:
            # v1 predates the pattern tag: always a synchronous
            # cycle-boundary snapshot with no async/obs blocks.
            data.setdefault("pattern", "synchronous")
            data.setdefault("async_state", None)
            data.setdefault("obs", None)
        try:
            ckpt = cls(**data)
        except TypeError as exc:
            raise CheckpointError(f"malformed checkpoint: {exc}") from None
        ckpt.validate()
        # Verified last: structural damage gets its specific error above;
        # the checksum catches the silent kind — a flipped bit in a
        # coordinate or RNG word that still parses and validates.  Only
        # current-schema files are checked: the v1 upgrade path rewrites
        # fields, so any hash it carried can no longer match.
        if version == SCHEMA_VERSION and ckpt.checksum is not None:
            expected = cls._content_checksum(data)
            if ckpt.checksum != expected:
                recorded = (
                    f"{ckpt.checksum[:12]}…"
                    if isinstance(ckpt.checksum, str)
                    else repr(ckpt.checksum)
                )
                raise CheckpointError(
                    f"checkpoint content checksum mismatch (recorded "
                    f"{recorded}, content hashes to "
                    f"{expected[:12]}…) — the file was corrupted after it "
                    f"was written"
                )
        return ckpt

    def validate(self) -> None:
        """Eagerly parse every block, raising :class:`CheckpointError`.

        Catches truncated or hand-edited snapshots at load time with one
        clear error instead of a bare ``KeyError``/``TypeError`` deep in
        restore.
        """
        try:
            if self.pattern not in ("synchronous", "asynchronous"):
                raise ValueError(f"unknown pattern {self.pattern!r}")
            for d in self.replicas:
                _replica_from_dict(d)
            for d in self.timings:
                CycleTiming(**d)
            for d in self.proposals:
                SwapProposal(**d)
            for name, counts in self.exchange_stats.items():
                int(counts["attempted"])
                int(counts["accepted"])
            for key in (
                "md_core_seconds",
                "exchange_core_seconds",
                "n_failures",
                "n_relaunches",
            ):
                float(self.accounting[key])
            if not isinstance(self.rng, dict) or "amm" not in self.rng:
                raise KeyError("rng['amm']")
            if not isinstance(self.staging, dict):
                raise TypeError("staging block must be an object")
            float(self.t_start)
            float(self.t_now)
            if self.pattern == "asynchronous":
                state = self.async_state
                if not isinstance(state, dict):
                    raise TypeError(
                        "asynchronous checkpoint has no async_state block"
                    )
                missing = [k for k in _ASYNC_STATE_KEYS if k not in state]
                if missing:
                    raise KeyError(
                        f"async_state missing {', '.join(missing)}"
                    )
                for k, v in state["cycles_done"].items():
                    int(k), int(v)
                [int(r) for r in state["pool"]]
                [int(r) for r in state["deferred"]]
                int(state["sweep"])
                int(state["rid_next"])
                int(state["n_quiesces"])
        except CheckpointError:
            raise
        except (KeyError, TypeError, ValueError, AttributeError) as exc:
            raise CheckpointError(
                f"corrupted checkpoint: {type(exc).__name__}: {exc}"
            ) from None

    def save(self, path) -> None:
        """Write the checkpoint to ``path`` atomically.

        The snapshot lands under a temporary name and is moved into place
        with ``os.replace``, so a kill mid-write can never leave a
        half-written file where a loadable checkpoint used to be.
        """
        path = Path(path)
        tmp = path.with_name(path.name + ".tmp")
        tmp.write_text(self.to_json())
        os.replace(tmp, path)

    @classmethod
    def load(cls, path) -> "Checkpoint":
        """Read a checkpoint from ``path``.

        Truncated, bit-flipped or otherwise mangled files fail here with
        a ``corrupt checkpoint at <path>`` error naming the file, rather
        than surfacing as a confusing failure deep inside restore.
        """
        try:
            text = Path(path).read_text()
        except OSError as exc:
            raise CheckpointError(f"cannot read checkpoint: {exc}") from None
        try:
            return cls.from_json(text)
        except CheckpointError as exc:
            raise CheckpointError(
                f"corrupt checkpoint at {path}: {exc}"
            ) from None


def _check_pattern(emm, ckpt: Checkpoint, expected: str) -> None:
    if ckpt.pattern != expected:
        raise CheckpointError(
            f"checkpoint was taken by the {ckpt.pattern} pattern but this "
            f"run uses the {expected} pattern"
        )
    if ckpt.config_hash != config_hash(emm.config):
        raise CheckpointError(
            f"checkpoint was taken from a different configuration "
            f"(hash {ckpt.config_hash} != {config_hash(emm.config)})"
        )


def _restore_state(emm, ckpt: Checkpoint) -> None:
    """Overwrite replicas, stats, accounting, RNG and staging from ``ckpt``."""
    emm.replicas = [_replica_from_dict(d) for d in ckpt.replicas]
    for name, counts in ckpt.exchange_stats.items():
        if name not in emm.amm.exchange_stats:
            raise CheckpointError(
                f"checkpoint has exchange stats for unknown dimension "
                f"{name!r}"
            )
        stats = emm.amm.exchange_stats[name]
        stats.attempted = int(counts["attempted"])
        stats.accepted = int(counts["accepted"])

    acct = ckpt.accounting
    emm.md_core_seconds = float(acct["md_core_seconds"])
    emm.exchange_core_seconds = float(acct["exchange_core_seconds"])
    emm.n_failures = int(acct["n_failures"])
    emm.n_relaunches = int(acct["n_relaunches"])
    emm.n_retired = int(acct.get("n_retired", 0))
    emm.n_spawned = int(acct.get("n_spawned", 0))

    emm.amm.rng.load_state(ckpt.rng["amm"])
    failure_model = emm.session.failure_model
    if "failures" in ckpt.rng and failure_model is not None:
        failure_model.rng.bit_generator.state = ckpt.rng["failures"]
    fault_domain = getattr(emm.session, "fault_domain", None)
    if (
        "staging" in ckpt.rng
        and fault_domain is not None
        and fault_domain.staging is not None
    ):
        fault_domain.staging.rng.bit_generator.state = ckpt.rng["staging"]
    if (
        "hangs" in ckpt.rng
        and fault_domain is not None
        and fault_domain._hang_rng is not None
    ):
        fault_domain._hang_rng.bit_generator.state = ckpt.rng["hangs"]
    watchdog = getattr(emm.session, "watchdog", None)
    if watchdog is not None:
        if "watchdog_backoff" in ckpt.rng and watchdog.retry.rng is not None:
            watchdog.retry.rng.bit_generator.state = ckpt.rng[
                "watchdog_backoff"
            ]
        if ckpt.watchdog_state is not None:
            watchdog.load_state(ckpt.watchdog_state)

    emm.session.staging_area.restore(ckpt.staging)


def _replay_clock(session, t_now: float) -> None:
    """Replay the virtual clock to the quiet point.

    Deterministic periodic events (fault schedule) refire harmlessly
    against the still-empty scheduler; anything at exactly ``t_now``
    stays pending, as at the original quiet point.
    """
    clock = session.clock
    while True:
        upcoming = [t for t, _, e in clock._heap if not e.cancelled]
        if not upcoming or min(upcoming) >= t_now:
            break
        clock.step()
    clock.advance_to(t_now)


def _restore_obs(emm, obs: Optional[Dict[str, object]]) -> None:
    """Swap the replayed observability state for the captured one.

    Must run *after* :func:`_replay_clock`: the replay re-increments
    fault counters and re-records fault events, and overwriting
    afterwards leaves exactly the history the uninterrupted run had at
    the quiet point.
    """
    if not obs:
        return
    if emm.metrics.enabled:
        emm.metrics.load_state(obs.get("registry", {}))
    tracer = emm.session.tracer
    if tracer is not None:
        tracer.load_state(obs.get("tracer", []))
    fault_domain = getattr(emm.session, "fault_domain", None)
    if fault_domain is not None:
        fault_domain.load_events(obs.get("fault_events", []))
    ladder = getattr(emm, "ladder", None)
    # tolerant .get(): pre-v3 checkpoints have no ladder blob and resume
    # with fresh walk state rather than failing
    if ladder is not None and obs.get("ladder") is not None:
        ladder.load_state(obs["ladder"])


def restore(
    emm, ckpt: Checkpoint
) -> Tuple[int, float, List[CycleTiming], List[SwapProposal]]:
    """Overwrite ``emm``'s state from a synchronous ``ckpt``.

    Must be called after the pilot is ACTIVE and before any cycle runs.
    Returns ``(start_cycle, t_start, timings, proposals)`` for the EMM's
    cycle loop.  The virtual clock is replayed to the checkpoint time:
    events strictly before it fire (re-arming deterministic fault
    schedules, re-quarantining crashed nodes), events at or after it stay
    pending, exactly as at the original boundary.
    """
    _check_pattern(emm, ckpt, "synchronous")
    if ckpt.next_cycle >= emm.config.n_cycles:
        raise CheckpointError(
            f"checkpoint is already complete ({ckpt.next_cycle} of "
            f"{emm.config.n_cycles} cycles)"
        )

    _restore_state(emm, ckpt)
    _replay_clock(emm.session, ckpt.t_now)
    _restore_obs(emm, ckpt.obs)

    timings = [CycleTiming(**d) for d in ckpt.timings]
    proposals = [SwapProposal(**d) for d in ckpt.proposals]
    return ckpt.next_cycle, ckpt.t_start, timings, proposals


def restore_async(emm, ckpt: Checkpoint) -> Dict[str, object]:
    """Overwrite ``emm``'s state from an asynchronous (quiesce) ``ckpt``.

    Returns the event-loop state block the async run loop rebuilds itself
    from: per-replica progress (``cycles_done``, ``md_attempts``), the
    exchange-candidate ``pool`` and ``deferred`` launch queue (both in
    original order, which pins event sequencing), the sweep and rid
    counters, the pending window-timer fire time, and the accumulated
    timings/proposals.
    """
    _check_pattern(emm, ckpt, "asynchronous")
    state = ckpt.async_state
    if not isinstance(state, dict):
        raise CheckpointError(
            "asynchronous checkpoint has no async_state block"
        )
    cycles_done = {int(k): int(v) for k, v in state["cycles_done"].items()}
    if cycles_done and all(
        c >= emm.config.n_cycles for c in cycles_done.values()
    ):
        raise CheckpointError(
            f"checkpoint is already complete (all replicas at "
            f"{emm.config.n_cycles} cycles)"
        )

    _restore_state(emm, ckpt)
    _replay_clock(emm.session, ckpt.t_now)
    _restore_obs(emm, ckpt.obs)

    window_next_t = state.get("window_next_t")
    return {
        "t_start": float(ckpt.t_start),
        "timings": [CycleTiming(**d) for d in ckpt.timings],
        "proposals": [SwapProposal(**d) for d in ckpt.proposals],
        "cycles_done": cycles_done,
        "md_attempts": {
            int(k): int(v) for k, v in state["md_attempts"].items()
        },
        "pool": [int(r) for r in state["pool"]],
        "deferred": [int(r) for r in state["deferred"]],
        "sweep": int(state["sweep"]),
        "rid_next": int(state["rid_next"]),
        "n_quiesces": int(state["n_quiesces"]),
        "window_next_t": (
            float(window_next_t) if window_next_t is not None else None
        ),
    }
