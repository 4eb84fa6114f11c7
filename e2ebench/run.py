"""Start-to-artefact benchmark for the repro CLI.

Usage (from the root of a checkout)::

    python3 e2ebench/run.py --workload NAME --seed N --seconds S --trace 0|1

One closed-loop client: for ``--seconds`` the benchmark launches fresh
``python -m repro run|campaign`` children one after another (each a
:mod:`child` process running ``repro.cli.main``), each writing its
artefacts to a scratch directory under ``.e2ebench_work/``.  After the
timed interval it checks every child's outputs (:mod:`checks`), reloads
every checkpoint, and prints one JSON object as the last line of stdout:

- ``--trace 0``: the end-to-end metrics over the children (``setup_s``
  a median, the others trimmed means; see :func:`end_to_end`);
- ``--trace 1``: untraced and traced children alternate; the per-layer
  ledger (medians over the traced children), ``unattributed_frac``,
  ``trace_overhead_frac`` and the untraced children's ``artefacts_s`` and
  ``md_units_per_s``.

The host fingerprint is printed on the line before and saved with the
full per-child record in ``.e2ebench_work/results/``.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import probes  # noqa: E402
from workloads import WORKLOADS, Workload  # noqa: E402

#: a child that runs longer than this is killed and counted as failed
CHILD_TIMEOUT_S = 120.0

#: environment variables that set how many threads numpy and friends use
THREAD_ENV = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "PYTHONHASHSEED",
)

#: the per-layer metrics of a ``--trace 1`` run; see README.md for what
#: each layer covers and which end-to-end metric it should move
PER_LAYER_UNITS = {
    **{f"{layer}.self_frac": "frac" for layer in probes.layer_names()},
    **{name: ("MB" if name.endswith("mb") else "count")
       for name in probes.COUNTS + ("checkpoint.files", "checkpoint.load_failed",
                                    "obs.write_mb")},
    "unattributed_frac": "frac",
    "trace_overhead_frac": "frac",
    "traced_total_s": "s",
    # over the untraced children; see README.md for why these two are not
    # end-to-end metrics
    "artefacts_s": "s",
    "md_units_per_s": "1/s",
}

END_TO_END_UNITS = {
    "setup_s": "s", "run_s": "s", "total_s": "s",
    "cpu_s": "s", "peak_rss_mb": "MB",
}

#: share of the children dropped from each end of a trimmed mean
TRIM = 0.1

#: the host-speed reference: interpreter start and the numpy import, none
#: of the program's code; see README.md, "Host-speed reference"
REFERENCE_ARGV = ("-c", "import json, numpy")

#: end-to-end times read as on a host where the reference takes this long
#: (about its median on the two-core host the benchmark was built on)
REFERENCE_S = 0.2


@dataclass
class Child:
    """One finished child: where its files are and what it cost."""

    index: int
    traced: bool
    out_dir: Path
    timing_path: Path
    returncode: Optional[int] = None
    spawn: float = 0.0
    cpu_s: float = 0.0
    peak_rss_mb: float = 0.0
    #: the child's own record (see child.py), None if it wrote none
    timing: Optional[dict] = None
    errors: List[str] = field(default_factory=list)
    write_mb: float = 0.0
    checkpoint_files: int = 0
    checkpoint_failures: List[str] = field(default_factory=list)

    def inspect_outputs(self) -> None:
        """Reload every checkpoint and size the artefacts (untimed)."""
        self.checkpoint_files, self.checkpoint_failures = (
            checks.reload_checkpoints(self.out_dir))
        self.write_mb = checks.artefact_mb(self.out_dir)


def run_child(index: int, traced: bool, workload: Workload, input_path: Path,
              work: Path, env: Dict[str, str]) -> Child:
    """Spawn one child, wait for it, and collect its resource usage."""
    out_dir = work / f"child-{index:03d}"
    meta = work / "meta"
    out_dir.mkdir(parents=True)
    meta.mkdir(exist_ok=True)
    child = Child(index, traced, out_dir, meta / f"child-{index:03d}.json")
    cmd = [sys.executable, str(HERE / "child.py"), str(child.timing_path),
           "1" if traced else "0", "--", *workload.argv(str(input_path))]
    with open(meta / f"child-{index:03d}.log", "wb") as log:
        child.spawn = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=out_dir, env=env, stdout=log,
                                stderr=subprocess.STDOUT)
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    child.returncode = proc.returncode
    child.cpu_s = usage.ru_utime + usage.ru_stime
    child.peak_rss_mb = usage.ru_maxrss / 1024.0  # Linux reports KiB
    if child.returncode != 0:
        child.errors.append(f"exit code {child.returncode} (log: {log.name})")
        return child
    try:
        child.timing = json.loads(child.timing_path.read_text())
    except (OSError, ValueError) as exc:
        child.errors.append(f"no timing record: {exc}")
        return child
    if child.timing["built"] is None or child.timing["run_end"] is None:
        child.errors.append("child never built or finished a run")
    return child


def phases(child: Child) -> Dict[str, float]:
    """The child's end-to-end times, all measured from its spawn."""
    t = child.timing
    return {
        "setup_s": t["built"] - child.spawn,
        "run_s": t["run_end"] - t["built"],
        "artefacts_s": t["end"] - t["run_end"],
        "total_s": t["end"] - child.spawn,
        "cpu_s": child.cpu_s,
        "peak_rss_mb": child.peak_rss_mb,
    }


def reference_s(env: Dict[str, str]) -> float:
    """Spawn-to-exit seconds of one reference process."""
    t0 = time.monotonic()
    subprocess.run([sys.executable, *REFERENCE_ARGV], env=env, check=True,
                   timeout=CHILD_TIMEOUT_S)
    return time.monotonic() - t0


def trimmed_mean(values: List[float], trim: float = TRIM) -> float:
    """Mean of ``values`` without the lowest and highest ``trim`` share."""
    values = sorted(values)
    k = int(len(values) * trim)
    return statistics.fmean(values[k:len(values) - k])


def end_to_end(untraced: List[Child], scale: float) -> Dict[str, float]:
    """The end-to-end metrics over a run's untraced children.

    Times are multiplied by ``scale``, ``REFERENCE_S`` over the run's
    median reference time.

    ``setup_s`` is the median: a short phase whose slow tail (a stalled
    spawn or page fault) the median ignores.  The other times are trimmed
    means.  On a shared host a child's speed switches between a fast and a
    slow state, so its times fall into two clusters and their median jumps
    between the clusters as their shares shift from run to run; a mean
    moves in proportion to the shares.  Trimming drops the rare child that
    stalls.
    """
    rows = [phases(c) for c in untraced]
    values = {"setup_s": statistics.median([r["setup_s"] for r in rows]) * scale,
              "peak_rss_mb": trimmed_mean([r["peak_rss_mb"] for r in rows])}
    for name in ("run_s", "total_s", "cpu_s"):
        values[name] = trimmed_mean([r[name] for r in rows]) * scale
    return values


def ledger_values(child: Child) -> Dict[str, float]:
    """The traced child's per-layer record as reported.

    Self times become shares of the child's spawn-to-last-artefact time,
    probe installation excluded: ``<layer>.self_frac``.  A share keeps
    layers comparable between hosts of different speed, and a layer that a
    workload never enters reads a true 0 rather than a time that never
    changes.  ``traced_total_s`` converts shares back to seconds.
    """
    t = child.timing
    raw = dict(t["ledger"])
    raw["python.start.self_s"] = t["start"] - child.spawn
    raw["checkpoint.files"] = child.checkpoint_files
    raw["checkpoint.load_failed"] = len(child.checkpoint_failures)
    raw["obs.write_mb"] = child.write_mb
    total = t["end"] - child.spawn - t["install_s"]
    values = {"traced_total_s": total}
    attributed = 0.0
    for name, value in raw.items():
        if name.endswith(".self_s"):
            attributed += value
            values[name[:-len("self_s")] + "self_frac"] = value / total
        else:
            values[name] = value
    values["unattributed_frac"] = (total - attributed) / total
    return values


def _git_commit(root: Path) -> Optional[str]:
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _source_digest(src: Path) -> str:
    """sha256 over ``src``'s Python files: the code's identity without git."""
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def host_fingerprint(root: Path, env: Dict[str, str]) -> Dict[str, object]:
    """What the numbers depend on besides the code: host, runtime, threads."""
    cpu_model = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu_model or platform.processor(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "numpy": metadata.version("numpy"),
        "git_commit": _git_commit(root),
        "source_sha256": _source_digest(root / "src"),
        "thread_env": {k: env.get(k) for k in THREAD_ENV},
        "platform": platform.platform(),
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "repro" / "cli.py").is_file():
        print(f"error: no repro source tree at {src}; run from the root of "
              "a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    workload = WORKLOADS[args.workload]

    stamp = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    work = root / ".e2ebench_work" / f"{stamp}-{os.getpid()}"
    results_dir = root / ".e2ebench_work" / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, PYTHONPATH=str(src))
    try:
        work.mkdir()
        input_path = work / "input.json"
        input_path.write_text(json.dumps(workload.build(args.seed), indent=2, sort_keys=True))
        # Byte-compile once up front: a user pays that on first use only.
        compileall.compile_dir(str(src), quiet=1)
        # Start timing from a quiet disk: flush what earlier runs left
        # pending (deleted artefacts, byte-code) before the first child.
        os.sync()

        children: List[Child] = []
        references: List[float] = []
        t_begin = time.monotonic()
        while len(children) < 1 + args.trace or time.monotonic() - t_begin < args.seconds:
            traced = bool(args.trace) and len(children) % 2 == 1
            references.append(reference_s(env))
            children.append(run_child(len(children), traced, workload,
                                      input_path, work, env))
        elapsed = time.monotonic() - t_begin
        scale = REFERENCE_S / statistics.median(references)

        # -- output checks, outside the timed interval ----------------------
        good = [c for c in children if not c.errors]
        verdicts, md_units = checks.verify([c.out_dir for c in good], workload)
        for child, errors in zip(good, verdicts):
            child.errors.extend(errors)
        for child in children:
            child.inspect_outputs()
        ckpt_files = sum(c.checkpoint_files for c in children)
        ckpt_failed = sum(len(c.checkpoint_failures) for c in children)

        correct = bool(children) and all(not c.errors for c in children)
        failed = sum(1 for c in children if c.errors) + ckpt_failed
        attempted = len(children) + ckpt_files

        metrics: Dict[str, Dict[str, object]] = {}
        timed = [c for c in children if not c.errors and c.timing]
        untraced = [c for c in timed if not c.traced]
        if args.trace == 0 and untraced:
            values = end_to_end(untraced, scale)
            for name, unit in END_TO_END_UNITS.items():
                metrics[name] = {"value": values[name], "unit": unit}
        traced = [c for c in timed if c.traced]
        if args.trace == 1 and traced and untraced:
            rows = [ledger_values(c) for c in traced]
            plain = [phases(c) for c in untraced]
            plain_total = statistics.median([p["total_s"] for p in plain])
            traced_total = statistics.median([phases(c)["total_s"] for c in traced])
            for name, unit in PER_LAYER_UNITS.items():
                if name == "trace_overhead_frac":
                    value = traced_total / plain_total - 1.0
                elif name == "artefacts_s":
                    value = statistics.median([p["artefacts_s"] for p in plain])
                elif name == "md_units_per_s":
                    value = md_units / end_to_end(untraced, scale)["total_s"]
                else:
                    value = statistics.median([r[name] for r in rows])
                metrics[name] = {"value": value, "unit": unit}

        fingerprint = host_fingerprint(root, env)
        record = {
            "workload": workload.name,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "elapsed_s": elapsed,
            "host": fingerprint,
            "md_units": md_units,
            "reference_s": references,
            "scale": scale,
            "children": [
                {
                    "index": c.index,
                    "traced": c.traced,
                    "returncode": c.returncode,
                    "errors": c.errors,
                    "checkpoint_failures": c.checkpoint_failures,
                    **(phases(c) if c.timing and not c.errors else {}),
                    **({"ledger": ledger_values(c)} if c.traced and c.timing and not c.errors else {}),
                }
                for c in children
            ],
            "metrics": metrics,
        }
        (results_dir / f"{stamp}.json").write_text(json.dumps(record, indent=2, sort_keys=True))

        for child in children:
            for error in child.errors:
                print(f"child {child.index}: {error}")
        if ckpt_failed:
            example = next(f for c in children for f in c.checkpoint_failures)
            print(f"checkpoint reload: {ckpt_failed} of {ckpt_files} file(s) rejected, "
                  f"e.g. {example}")
        print(f"{workload.name} seed {args.seed}: {len(children)} children in "
              f"{elapsed:.1f} s, {md_units} MD units per child; reference median "
              f"{statistics.median(references):.4f} s, times scaled by {scale:.4f}")
        print("host " + json.dumps(fingerprint, sort_keys=True))
        print(json.dumps({"correct": correct, "attempted": attempted,
                          "failed": failed, "metrics": metrics}))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)
        os.sync()


if __name__ == "__main__":
    sys.exit(main())
