"""Layer ledger: self time and work counts per layer, measured from outside.

The traced child installs a probe around every entry point named in
:data:`LAYERS` before it calls the CLI.  A probe times its call with
``time.perf_counter``; a layer's *self* time is the sum of its probes'
durations minus the time spent in probes nested inside them, so every host
second lands in at most one layer and ``unattributed`` is what no probe
covered.  Counts are recorded at the same boundaries, once per outermost
entry into a count hook, so a counted call nested in another call with
the same hook (``run_md`` inside ``run_md_batch``) is not counted twice.

Targets are wrapped where they are called: a class method is replaced on
its class, and a module-level function is replaced in its defining module
*and* in every already-imported ``repro`` module that bound it by value
(``from repro.pilot.soa import try_fast_phase`` in
``repro.core.execution_modes`` is one such caller).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

#: A count hook: ``(ledger, args, kwargs, result)``, called after the target
#: returns, unless a call sharing the same hook is already in progress.
CountFn = Callable[["Ledger", tuple, dict, object], None]


def _count(name: str, value_of: Callable[[tuple, dict, object], float]) -> CountFn:
    def hook(ledger, args, kwargs, result):
        ledger.counts[name] += value_of(args, kwargs, result)

    return hook


def _count_md(ledger, args, kwargs, result) -> None:
    # run_md_batch returns a list of MDResult, run_md a single one
    results = result if isinstance(result, list) else [result]
    ledger.counts["md.units"] += len(results)
    ledger.counts["md.steps"] += sum(int(r.n_steps) for r in results)


def _count_exchange(ledger, args, kwargs, result) -> None:
    ledger.counts["exchange.attempts"] += len(result)
    ledger.counts["exchange.accepted"] += sum(1 for p in result if p.accepted)


def _count_saved(ledger, args, kwargs, result) -> None:
    ledger.counts["checkpoint.mb"] += os.path.getsize(args[1]) / 1e6


def _count_sessions(ledger, args, kwargs, result) -> None:
    ledger.counts["campaign.sessions"] += len(result)
    ledger.counts["campaign.relaunches"] += sum(r.relaunches for r in result)


def _register_queue(ledger, args, kwargs, result) -> None:
    ledger.queues.append(args[0])


def _count_submits(ledger, args, kwargs, result) -> None:
    # submit(unit) or submit_many(units); a unit carries its description
    batch = args[1]
    ledger.counts["scheduler.submits"] += 1 if hasattr(batch, "description") else len(batch)


#: ``(module, "Class.method" | "Class.*" | "function", count hook or None)``
Target = Tuple[str, str, Optional[CountFn]]

#: Layer name -> the entry points whose host time it owns.  ``Class.*``
#: covers every function defined on the class itself (``__init__``
#: included, other dunders and properties not); a more specific layer
#: claims a method first, so it can be carved out of a wildcard.
LAYERS: Dict[str, List[Target]] = {
    "config": [
        ("repro.core.config", "SimulationConfig.from_json", None),
        ("repro.core.config", "SimulationConfig.from_dict", None),
        ("repro.campaign.spec", "CampaignSpec.from_json", None),
        ("repro.campaign.service", "expand_requests", None),
    ],
    "framework.build": [("repro.core.framework", "RepEx.__init__", None)],
    "emm": [
        ("repro.core.emm", "SynchronousEMM.run", None),
        ("repro.core.emm", "AsynchronousEMM.run", None),
    ],
    "exchange": [
        ("repro.core.ram", "compute_exchange", _count_exchange),
        ("repro.core.ram", "execute_single_point_group",
         _count("exchange.sp_energies", lambda a, k, r: int(r.size))),
        ("repro.core.amm", "ApplicationManager.apply_proposals", None),
    ],
    "amm": [("repro.core.amm", "ApplicationManager.*", None)],
    "rng": [
        ("repro.utils.rng", "RNGRegistry.stream",
         _count("rng.streams", lambda a, k, r: 1)),
        ("repro.utils.rng", "RNGRegistry.*", None),
        ("repro.utils.rng", "spawn_streams", None),
    ],
    "perfmodel": [("repro.md.perfmodel", "PerformanceModel.*", None)],
    "md.kernel": [
        ("repro.md.batch", "run_md_batch", _count_md),
        ("repro.md.amber", "AmberAdapter.run_md", _count_md),
        ("repro.md.namd", "NAMDAdapter.run_md", _count_md),
    ],
    "md.io": [
        (module, f"{cls}.{method}", None)
        for module, cls in (("repro.md.amber", "AmberAdapter"),
                            ("repro.md.namd", "NAMDAdapter"))
        for method in ("write_input", "read_info", "read_restart")
    ],
    "soa": [("repro.pilot.soa", "try_fast_phase",
             _count("soa.fast_phases", lambda a, k, r: r is not None))],
    "events": [
        ("repro.pilot.events", "EventQueue.__init__", _register_queue),
        ("repro.pilot.events", "EventQueue.account_batch",
         _count("events.credited", lambda a, k, r: int(a[1]))),
        ("repro.pilot.events", "EventQueue.*", None),
    ],
    "staging": [
        ("repro.pilot.staging", "StagingArea.put",
         _count("staging.mb", lambda a, k, r: float(a[2]))),
        ("repro.pilot.staging", "StagingArea.*", None),
    ]
    + [
        ("repro.pilot.scheduler", f"AgentScheduler.{name}", None)
        for name in ("_staging_time", "_staging_model", "_staging_event",
                     "_staging_done", "_run_staging", "_begin_staging_in",
                     "_begin_staging_out")
    ],
    "scheduler": [
        ("repro.pilot.scheduler", "AgentScheduler.submit", _count_submits),
        ("repro.pilot.scheduler", "AgentScheduler.submit_many", _count_submits),
        ("repro.pilot.scheduler", "AgentScheduler.*", None),
    ],
    "trace": [("repro.pilot.trace", "Tracer.*", None)],
    "checkpoint.capture": [
        ("repro.core.checkpoint", "Checkpoint.capture", None),
        ("repro.core.checkpoint", "Checkpoint.capture_async", None),
    ],
    "checkpoint.save": [
        ("repro.core.checkpoint", "Checkpoint.save", _count_saved),
    ],
    "obs.ladder": [("repro.obs.ladder", "LadderTracker.*", None)],
    "obs.manifest": [("repro.obs.manifest", "RunManifest.from_run", None)],
    "obs.write": [
        ("repro.obs.manifest", "RunManifest.dump", None),
        ("repro.obs.manifest", "ManifestStream.*", None),
        ("repro.campaign.service", "CampaignReport.to_dict", None),
        ("repro.campaign.service", "CampaignReport.openmetrics", None),
    ],
    "campaign.arbiter": [
        ("repro.campaign.arbiter", "Arbiter.run", _count_sessions),
        ("repro.campaign.arbiter", "Arbiter.*", None),
    ],
    "cli.main": [("repro.cli", "main", None)],
}

#: Layers timed directly rather than by a probe: interpreter start-up
#: (spawn to the child's first statement, by the benchmark) and
#: ``import repro.cli`` (by the child).
DIRECT_LAYERS = ("python.start", "cli.import")

#: Every count the ledger reports, in report order.  ``events.fired`` and
#: ``events.peak_heap`` are read off the registered event queues at the
#: end; ``checkpoint.files``, ``checkpoint.load_failed`` and
#: ``obs.write_mb`` are measured by the benchmark from the child's outputs.
COUNTS = (
    "rng.streams", "soa.fast_phases", "md.units",
    "md.steps", "exchange.attempts", "exchange.accepted",
    "exchange.sp_energies", "events.fired", "events.credited",
    "events.peak_heap", "scheduler.submits", "staging.mb", "checkpoint.mb",
    "campaign.sessions", "campaign.relaunches",
)


def layer_names() -> List[str]:
    """Every layer, direct ones first, in report order."""
    return list(DIRECT_LAYERS) + list(LAYERS)


class Ledger:
    """Per-layer self time and counts for one traced process."""

    def __init__(self):
        self.self_s: Dict[str, float] = defaultdict(float)
        self.counts: Dict[str, float] = defaultdict(float)
        self.queues: list = []
        self._stack: List[List[float]] = []
        self._active: Dict[CountFn, int] = defaultdict(int)

    def wrap(self, fn: Callable, layer: str,
             count: Optional[CountFn] = None) -> Callable:
        """``fn`` with its self time booked to ``layer``."""
        stack, active, self_s = self._stack, self._active, self.self_s
        clock = time.perf_counter
        ledger = self

        @functools.wraps(fn)
        def probe(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            outermost = active[count] == 0
            active[count] += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                if count is not None and outermost:
                    count(ledger, args, kwargs, result)
                return result
            finally:
                elapsed = clock() - t0
                active[count] -= 1
                stack.pop()
                self_s[layer] += elapsed - frame[0]
                if stack:
                    stack[-1][0] += elapsed

        return probe

    def report(self) -> Dict[str, float]:
        """``<layer>.self_s`` for every layer plus every count."""
        out = {f"{name}.self_s": self.self_s.get(name, 0.0)
               for name in layer_names()}
        counts = dict(self.counts)
        fired = sum(q.n_fired for q in self.queues)
        counts["events.fired"] = fired - counts.get("events.credited", 0.0)
        counts["events.peak_heap"] = max(
            (q.peak_heap for q in self.queues), default=0
        )
        for name in COUNTS:
            out[name] = counts.get(name, 0.0)
        return out


def _class_functions(cls: type) -> List[str]:
    """Functions defined on ``cls`` itself: ``__init__`` but no other dunder."""
    return [
        name for name, value in vars(cls).items()
        if (name == "__init__" or not name.startswith("__"))
        and (inspect.isfunction(value) or isinstance(value, (staticmethod, classmethod)))
    ]


def _patch_method(ledger: Ledger, cls: type, name: str, layer: str,
                  count: Optional[CountFn]) -> None:
    raw = vars(cls)[name]
    if isinstance(raw, staticmethod):
        setattr(cls, name, staticmethod(ledger.wrap(raw.__func__, layer, count)))
    elif isinstance(raw, classmethod):
        setattr(cls, name, classmethod(ledger.wrap(raw.__func__, layer, count)))
    else:
        setattr(cls, name, ledger.wrap(raw, layer, count))


def _patch_function(ledger: Ledger, module, name: str, layer: str,
                    count: Optional[CountFn]) -> None:
    original = getattr(module, name)
    wrapped = ledger.wrap(original, layer, count)
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "repro" or mod_name.startswith("repro.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, wrapped)


def install(ledger: Ledger) -> List[str]:
    """Wrap every target in :data:`LAYERS`; returns targets not found.

    A specific ``Class.method`` entry claims that method before any
    ``Class.*`` wildcard, whichever layer lists it.
    """
    claimed = set()
    wildcards = []
    missing = []
    for layer, targets in LAYERS.items():
        for module_name, path, count in targets:
            module = importlib.import_module(module_name)
            owner_name, _, attr = path.rpartition(".")
            if attr == "*":
                wildcards.append((layer, module, owner_name))
                continue
            if owner_name:
                cls = getattr(module, owner_name, None)
                if cls is None or attr not in vars(cls):
                    missing.append(f"{module_name}.{path}")
                    continue
                claimed.add((cls, attr))
                _patch_method(ledger, cls, attr, layer, count)
            else:
                if not hasattr(module, attr):
                    missing.append(f"{module_name}.{path}")
                    continue
                _patch_function(ledger, module, attr, layer, count)
    for layer, module, owner_name in wildcards:
        cls = getattr(module, owner_name, None)
        if cls is None:
            missing.append(f"{module.__name__}.{owner_name}.*")
            continue
        for name in _class_functions(cls):
            if (cls, name) not in claimed:
                claimed.add((cls, name))
                _patch_method(ledger, cls, name, layer, None)
    return missing
