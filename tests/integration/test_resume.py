"""Kill + resume equivalence: a resumed run is bit-identical.

The acceptance bar for checkpoint/restart: stop a run — at a cycle
boundary (synchronous), at a quiesce point (asynchronous), or with a
hard mid-flight kill — rebuild the whole stack from the checkpoint, and
the combined trajectory — coordinates, energies, exchange decisions, RNG
draws, virtual-clock times, core-second accounting, and the full
observability manifest — matches the uninterrupted run exactly (no
tolerance).

For the asynchronous pattern "uninterrupted" means *with the same
checkpoint cadence*: a quiesce is an induced quiet point that perturbs
the timeline, so the golden run must quiesce at the same virtual times
the killed+resumed pair did.
"""

import json
from pathlib import Path

import pytest

from repro.core import RepEx
from repro.core.checkpoint import Checkpoint
from repro.core.config import FailureSpec, PatternSpec
from repro.obs.diff import diff_manifests
from repro.pilot.events import SimulatedCrash
from tests.conftest import small_tremd_config


def fingerprint(result):
    """Every observable of a run, as an exact (full-precision) JSON blob."""
    return json.dumps(
        {
            "t_end": result.t_end,
            "replicas": [
                {
                    "rid": rep.rid,
                    "coords": list(map(float, rep.coords)),
                    "param_indices": rep.param_indices,
                    "status": rep.status.value,
                    "n_failures": rep.n_failures,
                    "history": [
                        {
                            "cycle": rec.cycle,
                            "param_indices": rec.param_indices,
                            "potential_energy": rec.potential_energy,
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
                for rep in result.replicas
            ],
            "exchange": {
                name: [stats.attempted, stats.accepted]
                for name, stats in result.exchange_stats.items()
            },
            "timings": [
                [c.cycle, c.t_md, c.t_ex, c.t_data, c.t_repex, c.t_rp, c.span]
                for c in result.cycle_timings
            ],
            "accounting": [
                result.md_core_seconds,
                result.exchange_core_seconds,
                result.n_failures,
                result.n_relaunches,
                result.n_retired,
            ],
        },
        sort_keys=True,
    )


def make_config(**over):
    return small_tremd_config(n_cycles=4, **over)


@pytest.mark.parametrize(
    "over",
    [
        {},
        {"failure": FailureSpec(probability=0.4, policy="relaunch")},
        {
            "failure": FailureSpec(
                policy="continue",
                staging_fault_probability=0.3,
                staging_max_retries=6,
            )
        },
    ],
    ids=["clean", "unit-failures", "staging-faults"],
)
def test_resume_is_bit_identical(tmp_path, over):
    baseline = RepEx(make_config(**over)).run()

    # "kill" the run at the cycle-2 boundary...
    first = RepEx(
        make_config(**over),
        checkpoint_every=2,
        checkpoint_dir=tmp_path,
        stop_after_cycle=2,
    )
    partial = first.run()
    assert partial.interrupted
    assert len(partial.cycle_timings) == 2

    # ...and continue from the file it left behind
    resumed = RepEx(
        make_config(**over), resume_from=tmp_path / "latest.json"
    ).run()
    assert not resumed.interrupted
    assert fingerprint(resumed) == fingerprint(baseline)


def test_resume_from_in_memory_checkpoint():
    baseline = RepEx(make_config()).run()
    first = RepEx(make_config(), checkpoint_every=2, stop_after_cycle=2)
    first.run()
    resumed = RepEx(make_config(), resume_from=first.checkpoints[-1]).run()
    assert fingerprint(resumed) == fingerprint(baseline)


def test_double_resume_chains(tmp_path):
    """Stop at 1, resume to 3, stop again, resume to the end."""
    baseline = RepEx(make_config()).run()
    RepEx(
        make_config(),
        checkpoint_every=1,
        checkpoint_dir=tmp_path,
        stop_after_cycle=1,
    ).run()
    middle = RepEx(
        make_config(),
        resume_from=tmp_path / "latest.json",
        checkpoint_every=1,
        checkpoint_dir=tmp_path,
        stop_after_cycle=3,
    )
    partial = middle.run()
    assert partial.interrupted
    assert len(partial.cycle_timings) == 3
    final = RepEx(
        make_config(), resume_from=tmp_path / "latest.json"
    ).run()
    assert fingerprint(final) == fingerprint(baseline)


def test_stop_without_checkpointing_marks_interrupted():
    result = RepEx(make_config(), stop_after_cycle=2).run()
    assert result.interrupted
    assert len(result.cycle_timings) == 2


# -- asynchronous pattern: quiesce checkpoints ------------------------------


#: quiesce cadence used throughout; the small async runs span ~700
#: virtual seconds, so this lands three quiesce points inside the run
CADENCE = 150.0


def async_config(**over):
    over.setdefault("pattern", PatternSpec(kind="asynchronous"))
    return small_tremd_config(n_cycles=4, **over)


def equivalent(golden, resumed):
    """Bit-identity in both senses: result fingerprint + manifest diff."""
    assert resumed.fingerprint() == golden.fingerprint()
    assert diff_manifests(golden.manifest, resumed.manifest).identical


class TestAsyncQuiesceResume:
    def test_stop_after_checkpoint_resumes_bit_identical(self, tmp_path):
        golden = RepEx(async_config(), checkpoint_every_s=CADENCE).run()

        first = RepEx(
            async_config(),
            checkpoint_every_s=CADENCE,
            checkpoint_dir=tmp_path,
            stop_after_checkpoint=1,
        )
        partial = first.run()
        assert partial.interrupted
        assert len(first.checkpoints) == 1
        assert first.checkpoints[0].pattern == "asynchronous"
        assert (tmp_path / "quiesce_0001.json").exists()

        resumed = RepEx(
            async_config(),
            checkpoint_every_s=CADENCE,
            resume_from=tmp_path / "latest.json",
        ).run()
        assert not resumed.interrupted
        equivalent(golden, resumed)

    def test_crash_mid_flight_resumes_bit_identical(self, tmp_path):
        golden = RepEx(async_config(), checkpoint_every_s=CADENCE).run()

        crash_at = golden.t_start + 0.8 * golden.wallclock
        with pytest.raises(SimulatedCrash):
            RepEx(
                async_config(),
                checkpoint_every_s=CADENCE,
                checkpoint_dir=tmp_path,
                crash_at_time=crash_at,
            ).run()

        resumed = RepEx(
            async_config(),
            checkpoint_every_s=CADENCE,
            resume_from=tmp_path / "latest.json",
        ).run()
        equivalent(golden, resumed)

    def test_crash_resume_with_staging_faults(self, tmp_path):
        over = dict(
            failure=FailureSpec(
                policy="continue",
                staging_fault_probability=0.3,
                staging_max_retries=6,
            )
        )
        golden = RepEx(async_config(**over), checkpoint_every_s=CADENCE).run()
        crash_at = golden.t_start + 0.75 * golden.wallclock
        with pytest.raises(SimulatedCrash):
            RepEx(
                async_config(**over),
                checkpoint_every_s=CADENCE,
                checkpoint_dir=tmp_path,
                crash_at_time=crash_at,
            ).run()
        resumed = RepEx(
            async_config(**over),
            checkpoint_every_s=CADENCE,
            resume_from=tmp_path / "latest.json",
        ).run()
        # fault injection races the quiesce drain, so the manifest's
        # fault log can differ in timing; the physics must not
        assert resumed.fingerprint() == golden.fingerprint()

    def test_double_resume_chains_async(self, tmp_path):
        golden = RepEx(async_config(), checkpoint_every_s=CADENCE).run()
        RepEx(
            async_config(),
            checkpoint_every_s=CADENCE,
            checkpoint_dir=tmp_path,
            stop_after_checkpoint=1,
        ).run()
        middle = RepEx(
            async_config(),
            checkpoint_every_s=CADENCE,
            checkpoint_dir=tmp_path,
            resume_from=tmp_path / "latest.json",
            stop_after_checkpoint=2,
        )
        partial = middle.run()
        assert partial.interrupted
        final = RepEx(
            async_config(),
            checkpoint_every_s=CADENCE,
            resume_from=tmp_path / "latest.json",
        ).run()
        equivalent(golden, final)

    def test_wide_ladder_checkpoints_load_and_resume(self, tmp_path):
        """Twelve replicas put ten or more int keys in ``cycles_done`` and
        the ladder's occupancy/walk dicts; those sort differently as ints
        and as the strings JSON turns them into, which the content
        checksum must not see."""
        from repro.core.config import DimensionSpec, ResourceSpec

        over = dict(
            dimensions=[DimensionSpec("temperature", 12, 273.0, 373.0)],
            resource=ResourceSpec("supermic", cores=6),
            numeric_steps=2,
        )
        golden = RepEx(async_config(**over), checkpoint_every_s=CADENCE).run()
        first = RepEx(
            async_config(**over),
            checkpoint_every_s=CADENCE,
            checkpoint_dir=tmp_path,
        )
        first.run()
        files = sorted(tmp_path.glob("quiesce_*.json"))
        assert files
        assert len(first.checkpoints[0].async_state["cycles_done"]) >= 10
        for path in files:
            assert Checkpoint.load(path).to_json() == path.read_text()

        RepEx(
            async_config(**over),
            checkpoint_every_s=CADENCE,
            checkpoint_dir=tmp_path / "stopped",
            stop_after_checkpoint=1,
        ).run()
        resumed = RepEx(
            async_config(**over),
            checkpoint_every_s=CADENCE,
            resume_from=tmp_path / "stopped" / "latest.json",
        ).run()
        assert not resumed.interrupted
        equivalent(golden, resumed)

    def test_preempt_warning_induces_checkpoint(self, tmp_path):
        """A preemption warning quiesces once, ahead of the preemption,
        with no periodic cadence configured."""
        over = dict(
            failure=FailureSpec(
                policy="relaunch",
                preempt_after_s=400.0,
                requeue_on_preempt=True,
                preempt_warning_s=60.0,
            )
        )
        repex = RepEx(async_config(**over), checkpoint_dir=tmp_path)
        repex.run()
        assert len(repex.checkpoints) == 1
        assert (tmp_path / "quiesce_0001.json").exists()
        ckpt = repex.checkpoints[0]
        # the quiesce begins at the warning time (400 - 60)
        assert ckpt.t_now >= 340.0

    def test_quiesce_counters_and_spans_reach_manifest(self):
        result = RepEx(async_config(), checkpoint_every_s=CADENCE).run()
        counters = result.manifest.metrics["counters"]
        assert counters["checkpoint.captured"] >= 2
        # a quiesce triggered close to the end may never capture (the run
        # drains to completion first), so triggers >= captures
        assert counters["checkpoint.quiesces"] >= counters[
            "checkpoint.captured"
        ]
        # one finished span per capture (an uncaptured quiesce never ends
        # its span)
        quiesce_spans = result.manifest.spans_named("quiesce")
        assert len(quiesce_spans) == int(counters["checkpoint.captured"])
        assert all(
            s.tags["pattern"] == "asynchronous" for s in quiesce_spans
        )


# -- synchronous pattern: crash mid-cycle -----------------------------------


class TestSyncCrashMidCycle:
    def test_crash_mid_cycle_rolls_back_to_boundary(self, tmp_path):
        # cycle-boundary capture does not perturb the sync timeline, so
        # the cadence-matched golden equals the plain baseline
        golden = RepEx(make_config(), checkpoint_every=1).run()
        boundaries = [c.t_end for c in golden.cycle_timings]

        # kill inside cycle 2 (between the first and second boundary)
        crash_at = (boundaries[0] + boundaries[1]) / 2
        with pytest.raises(SimulatedCrash):
            RepEx(
                make_config(),
                checkpoint_every=1,
                checkpoint_dir=tmp_path,
                crash_at_time=crash_at,
            ).run()

        # only the cycle-1 boundary made it to disk: the killed cycle
        # rolls back and replays
        latest = Checkpoint.load(tmp_path / "latest.json")
        assert latest.next_cycle == 1

        resumed = RepEx(
            make_config(),
            checkpoint_every=1,
            resume_from=tmp_path / "latest.json",
        ).run()
        assert len(resumed.cycle_timings) == len(golden.cycle_timings)
        equivalent(golden, resumed)

    def test_crash_with_unit_failures_resumes_identically(self, tmp_path):
        over = dict(failure=FailureSpec(probability=0.4, policy="relaunch"))
        golden = RepEx(make_config(**over), checkpoint_every=1).run()
        crash_at = golden.t_start + 0.6 * golden.wallclock
        with pytest.raises(SimulatedCrash):
            RepEx(
                make_config(**over),
                checkpoint_every=1,
                checkpoint_dir=tmp_path,
                crash_at_time=crash_at,
            ).run()
        resumed = RepEx(
            make_config(**over),
            checkpoint_every=1,
            resume_from=tmp_path / "latest.json",
        ).run()
        equivalent(golden, resumed)

    def test_crash_before_first_checkpoint_leaves_nothing(self, tmp_path):
        golden = RepEx(make_config(), checkpoint_every=1).run()
        crash_at = golden.t_start + 0.1 * golden.wallclock  # inside cycle 1
        with pytest.raises(SimulatedCrash):
            RepEx(
                make_config(),
                checkpoint_every=1,
                checkpoint_dir=tmp_path,
                crash_at_time=crash_at,
            ).run()
        assert not (tmp_path / "latest.json").exists()


# -- checkpoint compaction --------------------------------------------------


class TestCompaction:
    def test_keep_prunes_numbered_snapshots(self, tmp_path):
        RepEx(
            make_config(),
            checkpoint_every=1,
            checkpoint_dir=tmp_path,
            checkpoint_keep=2,
        ).run()
        numbered = sorted(p.name for p in tmp_path.glob("cycle_*.json"))
        assert numbered == ["cycle_0002.json", "cycle_0003.json"]
        assert (
            Checkpoint.load(tmp_path / "latest.json").to_json()
            == Checkpoint.load(tmp_path / "cycle_0003.json").to_json()
        )

    def test_keep_applies_to_quiesce_snapshots(self, tmp_path):
        repex = RepEx(
            async_config(),
            checkpoint_every_s=CADENCE,
            checkpoint_dir=tmp_path,
            checkpoint_keep=1,
        )
        repex.run()
        assert len(repex.checkpoints) >= 2
        numbered = list(tmp_path.glob("quiesce_*.json"))
        assert len(numbered) == 1
        Checkpoint.load(numbered[0])

    def test_zero_keeps_everything(self, tmp_path):
        RepEx(
            make_config(), checkpoint_every=1, checkpoint_dir=tmp_path
        ).run()
        assert len(list(tmp_path.glob("cycle_*.json"))) == 3

    def test_prune_is_write_new_then_delete(self, tmp_path, monkeypatch):
        """At the instant any snapshot is unlinked, a strictly newer one
        is already on disk and loadable — a kill mid-prune can never take
        the last checkpoint with it."""
        real_unlink = Path.unlink
        pruned = []

        def checked_unlink(self, *args, **kwargs):
            if self.parent == tmp_path:
                newer = [
                    p
                    for p in self.parent.glob("cycle_*.json")
                    if p.name > self.name
                ]
                assert newer, f"pruning {self.name} with nothing newer on disk"
                Checkpoint.load(max(newer))
                pruned.append(self.name)
            return real_unlink(self, *args, **kwargs)

        monkeypatch.setattr(Path, "unlink", checked_unlink)
        RepEx(
            make_config(),
            checkpoint_every=1,
            checkpoint_dir=tmp_path,
            checkpoint_keep=1,
        ).run()
        assert pruned == ["cycle_0001.json", "cycle_0002.json"]

    def test_failed_delete_never_kills_the_run(self, tmp_path, monkeypatch):
        calls = []

        def failing_unlink(self, *args, **kwargs):
            calls.append(self.name)
            raise OSError("disk says no")

        monkeypatch.setattr(Path, "unlink", failing_unlink)
        result = RepEx(
            make_config(),
            checkpoint_every=1,
            checkpoint_dir=tmp_path,
            checkpoint_keep=1,
        ).run()
        assert calls  # pruning was attempted...
        assert not result.interrupted  # ...and the run finished anyway
        # nothing was actually deleted, and everything still loads
        assert len(list(tmp_path.glob("cycle_*.json"))) == 3
        Checkpoint.load(tmp_path / "latest.json")
