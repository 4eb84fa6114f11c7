"""One user invocation of the repro CLI, with phase timestamps.

Usage::

    python child.py TIMING_JSON TRACE -- run|campaign ARGS...

Runs exactly what ``python -m repro ARGS...`` runs (``repro.cli.main``),
and writes ``TIMING_JSON`` with ``time.monotonic`` stamps, which on Linux
share one clock with the parent that spawned this process:

- ``import``: around ``import repro.cli``;
- ``built``: the end of the first ``RepEx.__init__`` (``run``) or
  ``Arbiter.__init__`` (``campaign``);
- ``run_end``: the return of the last ``RepEx.run`` or of
  ``run_campaign``;
- ``end``: the return of ``main``, once every artefact is on disk.

With ``TRACE`` = 1 the layer probes of :mod:`probes` are installed after
the import and the ledger lands in the timing file as well.
"""

import json
import sys
import time

_T_START = time.monotonic()


def _mark_after(owner, name: str, marks: dict, key: str, first: bool) -> None:
    """Stamp ``marks[key]`` when ``owner.name`` returns (the first or last time)."""
    original = getattr(owner, name)

    def hooked(*args, **kwargs):
        result = original(*args, **kwargs)
        if not (first and key in marks):
            marks[key] = time.monotonic()
        return result

    setattr(owner, name, hooked)


def main() -> int:
    timing_path, trace, sep, *argv = sys.argv[1:]
    if sep != "--" or trace not in ("0", "1") or not argv:
        print(__doc__, file=sys.stderr)
        return 2
    t_import = time.monotonic()
    import repro.cli

    t_imported = time.monotonic()
    ledger = None
    install_s = 0.0
    if trace == "1":
        import probes

        t0 = time.monotonic()
        ledger = probes.Ledger()
        missing = probes.install(ledger)
        if missing:
            print(f"probe targets not found: {missing}", file=sys.stderr)
            return 2
        ledger.self_s["cli.import"] = t_imported - t_import
        install_s = time.monotonic() - t0

    marks: dict = {}
    if argv[0] == "campaign":
        import repro.campaign.arbiter as arbiter
        import repro.campaign.service as service

        _mark_after(arbiter.Arbiter, "__init__", marks, "built", first=True)
        _mark_after(service, "run_campaign", marks, "run_end", first=False)
    else:
        from repro.core.framework import RepEx

        _mark_after(RepEx, "__init__", marks, "built", first=True)
        _mark_after(RepEx, "run", marks, "run_end", first=False)

    rc = repro.cli.main(argv)
    t_end = time.monotonic()
    record = {
        "rc": rc,
        "start": _T_START,
        "import": [t_import, t_imported],
        "built": marks.get("built"),
        "run_end": marks.get("run_end"),
        "end": t_end,
        "install_s": install_s,
        "ledger": ledger.report() if ledger is not None else None,
    }
    with open(timing_path, "w") as fh:
        json.dump(record, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
