"""Bit-identity contract of the pass-block measurement loop.

The pass-block loop (:mod:`repro.core.passblock`) must reproduce the
one-pass-at-a-time reference loop of ``tests/oracles.py`` exactly — same
measurements, same outlier labels, same CSV bytes, same virtual wall
clock — for every block size, including blocks that end ragged against
the stopping rule, window growths that roll speculation back mid-block,
and thermally throttled campaigns.  A traced campaign must also leave
the reference loop's trace, event for event.
"""

from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from repro import make_machine, run_campaign
from repro.core import passblock
from repro.core.context import BenchContext
from repro.core.passblock import plan_block_size
from repro.core.phase1 import run_phase1
from repro.core.phase2 import run_switch_benchmark
from repro.stats.rse import RseStoppingRule
from repro.trace import Tracer
from tests.conftest import fast_config
from tests.oracles import reference_loop
from tests.test_exec_engine import _campaign_fingerprint


def _csv_bytes(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(directory.glob("*.csv"))}


def _run(machine_factory, cfg, outdir):
    machine = machine_factory()
    result = run_campaign(machine, replace(cfg, output_dir=str(outdir)))
    return result, _csv_bytes(outdir)


def _run_reference(machine_factory, cfg, outdir):
    with reference_loop():
        return _run(machine_factory, cfg, outdir)


_ARCHES = [
    ("A100", (705.0, 1095.0, 1410.0), 2001),
    ("GH200", (705.0, 1410.0, 1980.0), 2002),
    ("RTX6000", (750.0, 1350.0, 1650.0), 2003),
]

#: a tiny initial window forces growth: the mid-block divergence path
#: that rolls speculation back through the ledger
_GROWTH_CONFIG = fast_config(
    (705.0, 1410.0),
    min_measurements=4,
    max_measurements=6,
    switch_window_factor=0.25,
    window_policy="probe-max",
)


def _growth_machine(**kw):
    return make_machine("A100", seed=31, **kw)


#: thermal machines exercise the throttle branches eagerly
_THERMAL_CONFIG = fast_config(
    (705.0, 1410.0), min_measurements=4, max_measurements=8
)


def _thermal_machine(**kw):
    return make_machine(
        "A100", seed=17, thermal_enabled=True, ambient_c=45.0,
        power_limit_w=320.0, **kw,
    )


_GH200_CONFIG = fast_config(
    (705.0, 1410.0, 1980.0),
    min_measurements=6,
    max_measurements=10,
    rse_check_every=4,
)


def _gh200_machine(**kw):
    return make_machine("GH200", seed=2002, **kw)


class TestBatchedScalarEquivalence:
    @pytest.mark.parametrize("model, freqs, seed", _ARCHES)
    @pytest.mark.parametrize("block", [1, 5, 25])
    def test_grid(self, model, freqs, seed, block, tmp_path):
        """Seeded grid: >= 3 arch profiles x block sizes {1, 5, 25}.

        min/max/check_every are chosen so blocks end ragged (the stop
        count 10 is not a multiple of 25, and the final block before
        max_measurements is shorter than the cap).
        """
        cfg = fast_config(
            freqs,
            min_measurements=6,
            max_measurements=10,
            rse_check_every=4,
        )
        factory = lambda: make_machine(model, seed=seed)  # noqa: E731
        ref, ref_csv = _run_reference(factory, cfg, tmp_path / "ref")
        blk, blk_csv = _run(
            factory, replace(cfg, pass_block_size=block), tmp_path / "blk"
        )
        assert _campaign_fingerprint(blk) == _campaign_fingerprint(ref)
        assert blk_csv == ref_csv
        assert blk.wall_virtual_s == ref.wall_virtual_s

    def test_window_growth_rollback(self, tmp_path):
        ref, ref_csv = _run_reference(
            _growth_machine, _GROWTH_CONFIG, tmp_path / "ref"
        )
        blk, blk_csv = _run(
            _growth_machine, replace(_GROWTH_CONFIG, pass_block_size=25),
            tmp_path / "blk",
        )
        growthy = [p.n_window_growths for p in ref.pairs.values()]
        assert any(g > 0 for g in growthy), "config failed to force growth"
        assert _campaign_fingerprint(blk) == _campaign_fingerprint(ref)
        assert blk_csv == ref_csv

    def test_thermal_campaign_equivalence(self, tmp_path):
        ref, ref_csv = _run_reference(
            _thermal_machine, _THERMAL_CONFIG, tmp_path / "ref"
        )
        blk, blk_csv = _run(
            _thermal_machine, replace(_THERMAL_CONFIG, pass_block_size=5),
            tmp_path / "blk",
        )
        assert _campaign_fingerprint(blk) == _campaign_fingerprint(ref)
        assert blk_csv == ref_csv

    @pytest.mark.parametrize("block", [5, 25])
    def test_thermal_discard_equivalence(self, block, monkeypatch, tmp_path):
        """Thermal throttling mid-pair: the discard-and-back-off branch.

        The thermal machine above is power-throttled before any pair
        measures, so this stages SW_THERMAL in recurring virtual-time
        windows instead — a function of the checkpointed clock, so
        speculation and rollback replay it exactly.
        """
        from repro.gpusim.device import GpuDevice
        from repro.gpusim.thermal import ThrottleReasons

        original = GpuDevice.throttle_reasons

        def hot(self):
            reasons = original(self)
            if int(self.clock.now * 4) % 5 == 0:
                reasons |= ThrottleReasons.SW_THERMAL
            return reasons

        monkeypatch.setattr(GpuDevice, "throttle_reasons", hot)
        cfg = fast_config(
            (705.0, 1410.0), min_measurements=8, max_measurements=12,
            rse_check_every=4,
        )
        factory = lambda **kw: make_machine("A100", seed=78, **kw)  # noqa: E731
        ref, ref_csv = _run_reference(factory, cfg, tmp_path / "ref")
        blk, blk_csv = _run(
            factory, replace(cfg, pass_block_size=block), tmp_path / "blk"
        )
        assert any(p.n_throttle_discards for p in ref.pairs.values())
        assert _campaign_fingerprint(blk) == _campaign_fingerprint(ref)
        assert blk_csv == ref_csv
        assert blk.wall_virtual_s == ref.wall_virtual_s

    def test_final_clock_state_matches(self):
        """After a pair the machine timeline must be scalar-exact, so the
        legacy serial loop (shared machine across pairs) stays identical
        too — not only the per-pair results."""
        cfg = fast_config(
            (705.0, 1095.0, 1410.0), min_measurements=4, max_measurements=6
        )
        a = make_machine("A100", seed=5)
        b = make_machine("A100", seed=5)
        with reference_loop():
            run_campaign(a, cfg)
        run_campaign(b, replace(cfg, pass_block_size=25))
        assert a.clock.now == b.clock.now
        assert a.host.rng.random() == b.host.rng.random()
        assert a.devices[0].rng.random() == b.devices[0].rng.random()


class TestTracedLoop:
    """Tracing observes the pass-block loop instead of replacing it."""

    @pytest.mark.parametrize(
        "machine_factory, cfg",
        [
            (_growth_machine, _GROWTH_CONFIG),
            (_thermal_machine, _THERMAL_CONFIG),
            (_gh200_machine, _GH200_CONFIG),
        ],
        ids=["growth", "thermal", "gh200"],
    )
    def test_trace_equals_reference_loop(self, machine_factory, cfg):
        """Every event of every category, in order, plus the final clock."""
        ref_tracer, blk_tracer = Tracer(), Tracer()
        ref_machine = machine_factory(tracer=ref_tracer)
        blk_machine = machine_factory(tracer=blk_tracer)
        with reference_loop():
            ref = run_campaign(ref_machine, cfg)
        blk = run_campaign(blk_machine, replace(cfg, pass_block_size=25))

        assert ref_tracer.n_dropped == blk_tracer.n_dropped == 0
        assert ref_tracer.n_events > 0
        assert list(blk_tracer.events()) == list(ref_tracer.events())
        assert _campaign_fingerprint(blk) == _campaign_fingerprint(ref)
        assert blk_machine.clock.now == ref_machine.clock.now

    @staticmethod
    def _count_block_evaluations(monkeypatch):
        calls = []
        original = passblock.evaluate_switch_block_deferred

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(passblock, "evaluate_switch_block_deferred", counting)
        return calls

    def test_disabled_tracer_keeps_speculating(self, monkeypatch):
        calls = self._count_block_evaluations(monkeypatch)
        tracer = Tracer(enabled=False)
        run_campaign(_growth_machine(tracer=tracer), _GROWTH_CONFIG)
        assert calls, "a disabled tracer must not force blocks of 1"
        assert tracer.n_events == 0

    def test_enabled_tracer_never_speculates(self, monkeypatch):
        calls = self._count_block_evaluations(monkeypatch)
        run_campaign(_growth_machine(tracer=Tracer()), _GROWTH_CONFIG)
        assert not calls


class TestMachineCheckpoint:
    def test_roundtrip_reproduces_draws(self):
        machine = make_machine("A100", seed=9)
        cfg = fast_config((705.0, 1410.0))
        bench = BenchContext(machine, cfg)
        phase1 = run_phase1(bench)
        run_switch_benchmark(bench, 705.0, 1410.0, phase1.kernel, 300)

        cp = machine.checkpoint()
        first = run_switch_benchmark(bench, 705.0, 1410.0, phase1.kernel, 300)
        t_after = machine.clock.now
        machine.restore(cp)
        replay = run_switch_benchmark(bench, 705.0, 1410.0, phase1.kernel, 300)

        assert replay.ts_acc == first.ts_acc
        np.testing.assert_array_equal(
            replay.timestamps.starts, first.timestamps.starts
        )
        np.testing.assert_array_equal(
            replay.timestamps.ends, first.timestamps.ends
        )
        assert machine.clock.now == t_after

    def test_restore_rewinds_dvfs_records(self):
        machine = make_machine("A100", seed=9)
        device = machine.devices[0]
        cfg = fast_config((705.0, 1410.0))
        bench = BenchContext(machine, cfg)
        phase1 = run_phase1(bench)
        cp = machine.checkpoint()
        n_records = len(device.dvfs.records)
        run_switch_benchmark(bench, 705.0, 1410.0, phase1.kernel, 300)
        assert len(device.dvfs.records) > n_records
        machine.restore(cp)
        assert len(device.dvfs.records) == n_records


class TestPlanBlockSize:
    def _rule(self, **kw):
        defaults = dict(
            threshold=0.05, min_measurements=20, max_measurements=60,
            check_every=10,
        )
        defaults.update(kw)
        return RseStoppingRule(**defaults)

    def test_stops_can_only_land_on_block_end(self):
        rule = self._rule()
        n = 0
        while n < rule.max_measurements:
            block = plan_block_size(n, rule, cap=25)
            # No count strictly inside the block may trigger a check.
            for inside in range(n + 1, n + block):
                assert not (
                    inside >= rule.max_measurements
                    or (
                        inside >= rule.min_measurements
                        and inside % rule.check_every == 0
                    )
                ), (n, block, inside)
            n += block
        assert n == rule.max_measurements

    def test_cap_respected(self):
        rule = self._rule(min_measurements=2, check_every=100)
        assert plan_block_size(0, rule, cap=7) == 7

    def test_ragged_final_block(self):
        rule = self._rule(min_measurements=4, max_measurements=9, check_every=4)
        assert plan_block_size(8, rule, cap=25) == 1  # only max-9 left
        assert plan_block_size(4, rule, cap=25) == 4
