"""Tests for the axis-generic measurement pipeline (:mod:`repro.core.axis`).

Covers the axis registry and config validation, the memory-axis campaign
end to end against the simulator's ``MemoryLatencyProfile`` ground truth,
axis-tagged CSV naming and byte-stable round-trips, engine worker-count
identity on the memory axis, the axis-marked seed streams, and the
**legacy-equivalence regression**: default-axis campaigns are pinned to
the exact CSV bytes and virtual wall clock the pre-axis pipeline
produced (serial, engine×1 and engine×2).
"""

import hashlib
from dataclasses import fields

import numpy as np
import pytest

from repro import LatestConfig, make_machine, run_campaign
from repro.core.axis import (
    AXES,
    MEMORY,
    POWER_CAP,
    SM_CORE,
    axis_by_name,
    axis_stream_id,
)
from repro.core.csvio import (
    pair_csv_name,
    parse_pair_csv_name,
    parse_pair_csv_name_full,
    read_pair_csv,
    write_campaign_csvs,
    write_pair_csv,
)
from repro.errors import ConfigError, MeasurementError
from repro.exec.jobs import pair_seed_sequence
from tests.conftest import fast_config


def memory_axis_config(frequencies=(1215.0, 810.0, 405.0), **over):
    return fast_config(frequencies, axis="memory", **over)


def power_axis_config(frequencies=(400.0, 330.0, 270.0), **over):
    return fast_config(frequencies, axis="power", **over)


# ----------------------------------------------------------------------
# registry + config surface
# ----------------------------------------------------------------------
class TestAxisRegistry:
    def test_known_axes(self):
        assert set(AXES) == {"sm_core", "memory", "power"}
        assert axis_by_name("sm_core") is SM_CORE
        assert axis_by_name("memory") is MEMORY
        assert axis_by_name("power") is POWER_CAP

    def test_unknown_axis_rejected(self):
        with pytest.raises(ConfigError):
            axis_by_name("pstate")

    def test_stream_ids_stable(self):
        # Registry order is the seed-spawn-key id: append-only contract.
        assert axis_stream_id("sm_core") == 0
        assert axis_stream_id("memory") == 1
        assert axis_stream_id("power") == 2

    def test_csv_prefixes_distinct(self):
        prefixes = [axis.csv_prefix for axis in AXES.values()]
        assert len(set(prefixes)) == len(prefixes)


class TestAxisConfig:
    def test_default_axis(self):
        cfg = fast_config((705.0, 1410.0))
        assert cfg.axis == "sm_core"
        assert cfg.swept_axis() is SM_CORE
        assert cfg.resolved_kernel_intensity() == 0.30

    def test_memory_axis_intensity_default(self):
        cfg = memory_axis_config()
        assert cfg.swept_axis() is MEMORY
        assert cfg.resolved_kernel_intensity() == 0.70

    def test_explicit_intensity_wins(self):
        cfg = memory_axis_config(kernel_memory_intensity=0.5)
        assert cfg.resolved_kernel_intensity() == 0.5

    def test_unknown_axis_rejected(self):
        with pytest.raises(ConfigError):
            fast_config((705.0, 1410.0), axis="pstate")

    def test_memory_axis_rejects_grid_facets(self):
        with pytest.raises(ConfigError):
            memory_axis_config(memory_frequencies=(1215.0,))

    def test_locked_sm_requires_memory_axis(self):
        with pytest.raises(ConfigError):
            fast_config((705.0, 1410.0), locked_sm_mhz=1410.0)

    def test_locked_sm_must_be_positive(self):
        with pytest.raises(ConfigError):
            memory_axis_config(locked_sm_mhz=-5.0)

    def test_intensity_bounds(self):
        with pytest.raises(ConfigError):
            fast_config((705.0, 1410.0), kernel_memory_intensity=1.0)

    def test_power_axis_config(self):
        cfg = power_axis_config()
        assert cfg.swept_axis() is POWER_CAP
        # The cap acts on the SM clock itself; the legacy compute-bound
        # workload already responds to it.
        assert cfg.resolved_kernel_intensity() == 0.30

    def test_power_axis_rejects_grid_facets(self):
        with pytest.raises(ConfigError):
            power_axis_config(memory_frequencies=(1215.0,))

    def test_power_axis_accepts_locked_sm(self):
        cfg = power_axis_config(locked_sm_mhz=1095.0)
        assert cfg.locked_sm_mhz == 1095.0

    def test_locked_sm_facet_plan(self):
        cfg = memory_axis_config(locked_sm_mhz=(1410.0, 810.0))
        assert cfg.locked_sm_plan() == (1410.0, 810.0)
        assert cfg.facet_plan() == (1410.0, 810.0)
        assert memory_axis_config().facet_plan() == (None,)
        assert memory_axis_config(locked_sm_mhz=1410.0).locked_sm_plan() is None

    def test_locked_sm_tuple_validation(self):
        with pytest.raises(ConfigError):
            memory_axis_config(locked_sm_mhz=())
        with pytest.raises(ConfigError):
            memory_axis_config(locked_sm_mhz=(1410.0, 1410.0))
        with pytest.raises(ConfigError):
            memory_axis_config(locked_sm_mhz=(1410.0, -5.0))

    def test_locked_sm_tuple_requires_facet_axis(self):
        with pytest.raises(ConfigError):
            fast_config((705.0, 1410.0), locked_sm_mhz=(1410.0, 810.0))


# ----------------------------------------------------------------------
# CSV naming + round-trip
# ----------------------------------------------------------------------
class TestAxisCsvNaming:
    def test_memory_axis_prefix(self):
        name = pair_csv_name(1215.0, 810.0, "karolina23", 2, axis="memory")
        assert name == "swlatmem_1215_810_karolina23_gpu2.csv"

    def test_memory_axis_full_parse(self):
        parsed = parse_pair_csv_name_full(
            "swlatmem_1215_810_karolina23_gpu2.csv"
        )
        assert parsed.init_mhz == 1215.0
        assert parsed.target_mhz == 810.0
        assert parsed.memory_mhz is None
        assert parsed.axis == "memory"

    def test_tuple_parser_stays_compatible(self):
        assert parse_pair_csv_name(
            "swlatmem_1215_810_karolina23_gpu2.csv"
        ) == (1215.0, 810.0, None)
        legacy = parse_pair_csv_name_full("swlat_705_1410_h_gpu0.csv")
        assert legacy.axis == "sm_core"
        grid = parse_pair_csv_name_full("swlatm_705_1410_810_h_gpu0.csv")
        assert grid.axis == "sm_core" and grid.memory_mhz == 810.0

    def test_memory_axis_rejects_facet_field(self):
        with pytest.raises(MeasurementError):
            pair_csv_name(1215.0, 810.0, "h", 0, memory_mhz=810.0, axis="memory")

    def test_mem_prefixed_hostname_still_unambiguous(self):
        # "swlatmem_" must never be confused with a swlatm_ file whose
        # memory field ran into an unsanitized hostname.
        parsed = parse_pair_csv_name_full("swlatm_705_1410_810_mem5-node_gpu0.csv")
        assert parsed.axis == "sm_core"
        assert parsed.memory_mhz == 810.0

    def test_power_axis_prefix(self):
        name = pair_csv_name(400.0, 270.0, "karolina23", 2, axis="power")
        assert name == "swlatpow_400_270_karolina23_gpu2.csv"
        parsed = parse_pair_csv_name_full(name)
        assert parsed.axis == "power"
        assert (parsed.init_mhz, parsed.target_mhz) == (400.0, 270.0)
        assert parsed.memory_mhz is None and parsed.locked_sm_mhz is None

    def test_facet_sweep_prefix(self):
        name = pair_csv_name(
            1215.0, 810.0, "h", 0, axis="memory", locked_sm_mhz=1410.0
        )
        assert name == "swlatmemf_1215_810_1410_h_gpu0.csv"
        parsed = parse_pair_csv_name_full(name)
        assert parsed.axis == "memory"
        assert parsed.locked_sm_mhz == 1410.0
        assert parsed.memory_mhz is None

    def test_default_axis_rejects_facet_field(self):
        with pytest.raises(MeasurementError):
            pair_csv_name(705.0, 1410.0, "h", 0, locked_sm_mhz=1410.0)

    def test_power_axis_rejects_memory_field(self):
        with pytest.raises(MeasurementError):
            pair_csv_name(400.0, 270.0, "h", 0, memory_mhz=810.0, axis="power")


# ----------------------------------------------------------------------
# memory-axis campaign vs simulator ground truth
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def memory_campaign():
    machine = make_machine("A100", seed=7)
    return run_campaign(machine, memory_axis_config())


class TestMemoryAxisCampaign:
    def test_all_memory_pairs_measured(self, memory_campaign):
        res = memory_campaign
        assert res.axis == "memory"
        assert res.locked_sm_mhz == 1410.0  # A100 max SM clock by default
        assert len(res.pairs) == 6  # 3 memory clocks, ordered pairs
        for pair in res.pairs.values():
            assert not pair.skipped
            assert pair.axis == "memory"
            assert pair.memory_mhz is None  # facet is the SM clock
            assert pair.n_measurements >= 4

    def test_latencies_in_memory_retraining_range(self, memory_campaign):
        # A100 HBM retraining: ~9 ms base median, scaled by clock
        # distance; everything should sit well above SM relock times
        # and well below a second.
        lats = memory_campaign.all_latencies_s()
        assert lats.min() > 2e-3
        assert lats.max() < 0.5

    def test_medians_track_ground_truth(self, memory_campaign):
        """Filtered medians agree with the injected memory transitions."""
        for pair in memory_campaign.iter_measured():
            measured = float(np.median(pair.latencies_s()))
            truth = float(np.nanmedian(pair.ground_truths_s()))
            assert measured == pytest.approx(truth, rel=0.25), pair.key

    def test_medians_track_arch_profile_scale(self, memory_campaign):
        """Order-of-magnitude agreement with ``MemoryLatencyProfile``."""
        from repro.gpusim.arch_profiles import A100Profile

        base = A100Profile.memory_switch_median_s
        for pair in memory_campaign.iter_measured():
            measured = float(np.median(pair.latencies_s()))
            # distance scaling tops out at 1.6x; adaptation/quantization
            # and tail mass push the measured median above the base draw
            assert 0.5 * base < measured < 5.0 * base

    def test_phase1_separates_memory_clocks(self, memory_campaign):
        chars = memory_campaign.phase1.characterizations
        assert set(chars) == {1215.0, 810.0, 405.0}
        # Iteration time grows monotonically as the memory clock drops
        # (the roofline stall model at the locked SM clock).
        means = [chars[f].stats.mean for f in (1215.0, 810.0, 405.0)]
        assert means[0] < means[1] < means[2]

    def test_locked_sm_override(self):
        machine = make_machine("A100", seed=13)
        res = run_campaign(
            machine,
            memory_axis_config(
                frequencies=(1215.0, 810.0), locked_sm_mhz=1095.0,
                min_measurements=2, max_measurements=4,
            ),
        )
        assert res.locked_sm_mhz == 1095.0
        assert res.n_measured_pairs == 2

    def test_csv_round_trip_byte_stable(self, memory_campaign, tmp_path):
        paths = write_campaign_csvs(tmp_path, memory_campaign)
        pair_paths = [p for p in paths if p.name.startswith("swlatmem_")]
        assert len(pair_paths) == 6
        for path in pair_paths:
            restored = read_pair_csv(path)
            assert restored.axis == "memory"
            rewritten = write_pair_csv(
                tmp_path / "again", restored,
                memory_campaign.hostname, memory_campaign.device_index,
            )
            assert rewritten.name == path.name
            assert rewritten.read_bytes() == path.read_bytes()

    def test_summary_tags_axis(self, memory_campaign, tmp_path):
        write_campaign_csvs(tmp_path, memory_campaign)
        summary = (tmp_path / "summary_simnode01_gpu0.csv").read_text()
        lines = summary.splitlines()
        assert lines[0].startswith("init_mhz,target_mhz,axis,")
        assert ",memory,ok," in lines[1]
        assert lines[-1] == "#locked_sm_mhz,1410"

    def test_report_labels_memory_axis(self, memory_campaign):
        from repro.analysis.report import campaign_report

        report = campaign_report(memory_campaign)
        assert "swept axis: memory clock" in report
        assert "SM clock locked at 1410 MHz" in report

    def test_table2_tags_axis(self, memory_campaign):
        from repro.analysis.render import render_table2
        from repro.analysis.summary import summarize_campaign

        out = render_table2([summarize_campaign(memory_campaign)])
        assert "A100 SXM-4 [memory]" in out


# ----------------------------------------------------------------------
# engine on the memory axis
# ----------------------------------------------------------------------
class TestMemoryAxisEngine:
    @pytest.fixture(scope="class")
    def engine_results(self, tmp_path_factory):
        results = {}
        for workers in (1, 2):
            out = tmp_path_factory.mktemp(f"mem_engine_{workers}")
            machine = make_machine("A100", seed=7)
            cfg = memory_axis_config(
                frequencies=(1215.0, 810.0), output_dir=str(out)
            )
            results[workers] = (run_campaign(machine, cfg, workers=workers), out)
        return results

    @staticmethod
    def _csv_bytes(directory):
        return {
            p.name: p.read_bytes() for p in sorted(directory.iterdir())
        }

    def test_bit_identical_across_worker_counts(self, engine_results):
        r1, d1 = engine_results[1]
        r2, d2 = engine_results[2]
        m1 = {k: [m.latency_s for m in p.measurements] for k, p in r1.pairs.items()}
        m2 = {k: [m.latency_s for m in p.measurements] for k, p in r2.pairs.items()}
        assert m1 == m2
        assert r1.wall_virtual_s == r2.wall_virtual_s
        assert self._csv_bytes(d1) == self._csv_bytes(d2)

    def test_engine_agrees_with_ground_truth(self, engine_results):
        result, _ = engine_results[1]
        assert result.axis == "memory"
        for pair in result.iter_measured():
            measured = float(np.median(pair.latencies_s()))
            truth = float(np.nanmedian(pair.ground_truths_s()))
            assert measured == pytest.approx(truth, rel=0.30), pair.key

    def test_serial_and_engine_same_scale(self, engine_results, memory_campaign):
        """Serial and engine replicas measure the same physical model.

        The engine's per-pair replica machines draw from their own seed
        streams, so results differ numerically from the serial timeline —
        but both must recover the same retraining-latency scale for the
        shared pairs.
        """
        engine_result, _ = engine_results[1]
        for key, pair in engine_result.pairs.items():
            serial_pair = memory_campaign.pairs[key]
            a = float(np.median(pair.latencies_s()))
            b = float(np.median(serial_pair.latencies_s()))
            assert a == pytest.approx(b, rel=0.5), key


# ----------------------------------------------------------------------
# power-axis campaign vs simulator ground truth
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def power_campaign():
    machine = make_machine("A100", seed=7)
    return run_campaign(machine, power_axis_config())


class TestPowerAxisCampaign:
    def test_all_limit_pairs_measured(self, power_campaign):
        res = power_campaign
        assert res.axis == "power"
        assert res.locked_sm_mhz == 1410.0  # A100 max SM clock by default
        assert len(res.pairs) == 6  # 3 limits, ordered pairs
        for pair in res.pairs.values():
            assert not pair.skipped, pair.skip_reason
            assert pair.axis == "power"
            assert pair.memory_mhz is None
            assert pair.n_measurements >= 4

    def test_latencies_in_retarget_range(self, power_campaign):
        # A100 power-controller re-target: ~22 ms base median scaled by
        # limit distance and direction; well above SM relock times, well
        # below a second.
        lats = power_campaign.all_latencies_s()
        assert lats.min() > 5e-3
        assert lats.max() < 0.5

    def test_medians_track_ground_truth(self, power_campaign):
        """Filtered medians agree with the injected limit transitions."""
        for pair in power_campaign.iter_measured():
            measured = float(np.median(pair.latencies_s()))
            truth = float(np.nanmedian(pair.ground_truths_s()))
            assert measured == pytest.approx(truth, rel=0.25), pair.key

    def test_medians_track_arch_profile_scale(self, power_campaign):
        """Order-of-magnitude agreement with ``PowerCapLatencyProfile``."""
        from repro.gpusim.arch_profiles import A100Profile

        base = A100Profile.power_cap_switch_median_s
        for pair in power_campaign.iter_measured():
            measured = float(np.median(pair.latencies_s()))
            assert 0.5 * base < measured < 5.0 * base

    def test_phase1_separates_power_limits(self, power_campaign):
        chars = power_campaign.phase1.characterizations
        assert set(chars) == {400.0, 330.0, 270.0}
        # Iteration time grows monotonically as the limit tightens (the
        # capped-clock roofline at the locked SM clock).
        means = [chars[w].stats.mean for w in (400.0, 330.0, 270.0)]
        assert means[0] < means[1] < means[2]

    def test_power_cap_is_benign_not_skipped(self, power_campaign):
        # Every pair drives the device into SW_POWER_CAP; none may be
        # abandoned by the power-throttle skip rule.
        assert not any(
            p.skip_reason == "power-throttled"
            for p in power_campaign.pairs.values()
        )

    def test_csv_round_trip_byte_stable(self, power_campaign, tmp_path):
        paths = write_campaign_csvs(tmp_path, power_campaign)
        pair_paths = [p for p in paths if p.name.startswith("swlatpow_")]
        assert len(pair_paths) == 6
        for path in pair_paths:
            restored = read_pair_csv(path)
            assert restored.axis == "power"
            rewritten = write_pair_csv(
                tmp_path / "again", restored,
                power_campaign.hostname, power_campaign.device_index,
            )
            assert rewritten.name == path.name
            assert rewritten.read_bytes() == path.read_bytes()

    def test_summary_tags_axis(self, power_campaign, tmp_path):
        write_campaign_csvs(tmp_path, power_campaign)
        summary = (tmp_path / "summary_simnode01_gpu0.csv").read_text()
        lines = summary.splitlines()
        assert lines[0].startswith("init_mhz,target_mhz,axis,")
        assert ",power,ok," in lines[1]
        assert lines[-1] == "#locked_sm_mhz,1410"

    def test_report_labels_power_axis(self, power_campaign):
        from repro.analysis.report import campaign_report

        report = campaign_report(power_campaign)
        assert "swept axis: board power limit" in report
        assert "SM clock locked at 1410 MHz" in report
        assert "400, 330, 270 W" in report


class TestPowerAxisEngine:
    @pytest.fixture(scope="class")
    def engine_results(self, tmp_path_factory):
        results = {}
        for workers in (1, 2):
            out = tmp_path_factory.mktemp(f"pow_engine_{workers}")
            machine = make_machine("A100", seed=7)
            cfg = power_axis_config(
                frequencies=(400.0, 270.0), output_dir=str(out)
            )
            results[workers] = (run_campaign(machine, cfg, workers=workers), out)
        return results

    @staticmethod
    def _csv_bytes(directory):
        return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}

    def test_bit_identical_across_worker_counts(self, engine_results):
        r1, d1 = engine_results[1]
        r2, d2 = engine_results[2]
        m1 = {k: [m.latency_s for m in p.measurements] for k, p in r1.pairs.items()}
        m2 = {k: [m.latency_s for m in p.measurements] for k, p in r2.pairs.items()}
        assert m1 == m2
        assert r1.wall_virtual_s == r2.wall_virtual_s
        assert self._csv_bytes(d1) == self._csv_bytes(d2)

    def test_engine_agrees_with_ground_truth(self, engine_results):
        result, _ = engine_results[1]
        assert result.axis == "power"
        for pair in result.iter_measured():
            measured = float(np.median(pair.latencies_s()))
            truth = float(np.nanmedian(pair.ground_truths_s()))
            assert measured == pytest.approx(truth, rel=0.30), pair.key


# ----------------------------------------------------------------------
# multi-facet sweeps: swept-axis pairs at several locked SM clocks
# ----------------------------------------------------------------------
class TestLockedSmFacetSweep:
    FACETS = (1410.0, 810.0)

    @pytest.fixture(scope="class")
    def facet_results(self, tmp_path_factory):
        results = {}
        for workers in (None, 1, 2):
            out = tmp_path_factory.mktemp(f"facets_{workers}")
            machine = make_machine("A100", seed=11)
            cfg = memory_axis_config(
                frequencies=(1215.0, 810.0),
                locked_sm_mhz=self.FACETS,
                min_measurements=2,
                max_measurements=4,
                output_dir=str(out),
            )
            results[workers] = (run_campaign(machine, cfg, workers=workers), out)
        return results

    def test_one_grid_per_facet(self, facet_results):
        res, _ = facet_results[None]
        assert res.locked_sm_frequencies == self.FACETS
        assert res.locked_sm_mhz is None  # no single campaign-level facet
        assert len(res.pairs) == 4  # 2 memory pairs x 2 facets
        for key, pair in res.pairs.items():
            assert len(key) == 3
            assert pair.locked_sm_mhz == key[2]
            assert pair.memory_mhz is None
            assert pair.axis == "memory"

    def test_facet_shapes_iteration_times(self, facet_results):
        res, _ = facet_results[None]
        # Phase 1 ran once per facet; a lower locked SM clock means
        # slower iterations at every memory clock.
        chars_fast = res.phase1_by_memory[1410.0].characterizations
        chars_slow = res.phase1_by_memory[810.0].characterizations
        for mem in (1215.0, 810.0):
            assert chars_fast[mem].stats.mean < chars_slow[mem].stats.mean

    def test_facet_csv_names_round_trip(self, facet_results):
        res, out = facet_results[None]
        names = sorted(p.name for p in out.iterdir())
        facet_names = [n for n in names if n.startswith("swlatmemf_")]
        assert len(facet_names) == 4
        for name in facet_names:
            parsed = parse_pair_csv_name_full(name)
            assert parsed.axis == "memory"
            assert parsed.locked_sm_mhz in self.FACETS

    def test_summary_has_facet_column(self, facet_results):
        _, out = facet_results[None]
        summary = (out / "summary_simnode01_gpu0.csv").read_text()
        lines = summary.splitlines()
        assert lines[0].startswith("init_mhz,target_mhz,axis,locked_sm_mhz,")
        assert not lines[-1].startswith("#locked_sm_mhz")

    def test_engine_bit_identical_across_worker_counts(self, facet_results):
        r1, d1 = facet_results[1]
        r2, d2 = facet_results[2]
        m1 = {k: [m.latency_s for m in p.measurements] for k, p in r1.pairs.items()}
        m2 = {k: [m.latency_s for m in p.measurements] for k, p in r2.pairs.items()}
        assert m1 == m2
        assert r1.wall_virtual_s == r2.wall_virtual_s
        b1 = {p.name: p.read_bytes() for p in sorted(d1.iterdir())}
        b2 = {p.name: p.read_bytes() for p in sorted(d2.iterdir())}
        assert b1 == b2

    def test_serial_and_engine_same_grid(self, facet_results):
        serial, _ = facet_results[None]
        engine, _ = facet_results[1]
        assert set(serial.pairs) == set(engine.pairs)

    def test_facet_accessors(self, facet_results):
        res, _ = facet_results[None]
        with pytest.raises(MeasurementError):
            res.pair(1215.0, 810.0)  # ambiguous: two facets
        pair = res.pair(1215.0, 810.0, locked_sm_mhz=810.0)
        assert pair.locked_sm_mhz == 810.0
        grid = res.latency_matrix("max", locked_sm_mhz=1410.0)
        assert grid.shape == (2, 2)

    def test_wrong_facet_kind_rejected(self, facet_results):
        from repro.core.results import CampaignResult, PairResult

        # A locked-SM sweep rejects a memory facet argument ...
        res, _ = facet_results[None]
        with pytest.raises(MeasurementError):
            res.pair(1215.0, 810.0, memory_mhz=810.0)
        # ... and a core×memory grid rejects a locked-SM one (it must
        # not be silently dropped in favour of the memory facet).
        grid = CampaignResult(
            gpu_name="x", architecture="Ampere", hostname="h",
            device_index=0, frequencies=(705.0, 1410.0),
            pairs={
                (705.0, 1410.0, 810.0): PairResult(
                    705.0, 1410.0, memory_mhz=810.0
                )
            },
            memory_frequencies=(810.0,),
        )
        with pytest.raises(MeasurementError):
            grid.pair(705.0, 1410.0, locked_sm_mhz=810.0)
        assert grid.pair(705.0, 1410.0).memory_mhz == 810.0

    def test_heatmaps_by_facet(self, facet_results):
        from repro.analysis.heatmap import heatmaps_by_memory

        res, _ = facet_results[None]
        grids = heatmaps_by_memory(res, "max")
        assert set(grids) == set(self.FACETS)
        assert grids[810.0].facet_label == "@ SM 810 MHz"

    def test_power_axis_facet_sweep_runs(self):
        machine = make_machine("A100", seed=5)
        cfg = power_axis_config(
            frequencies=(400.0, 270.0),
            locked_sm_mhz=(1410.0, 1215.0),
            min_measurements=2,
            max_measurements=4,
        )
        res = run_campaign(machine, cfg)
        assert res.locked_sm_frequencies == (1410.0, 1215.0)
        assert len(res.pairs) == 4
        measured = [p for p in res.iter_measured(locked_sm_mhz=1410.0)]
        assert measured  # the unconstrained facet measures fine


class TestAxisSeedStreams:
    def test_memory_axis_stream_differs_from_legacy(self):
        machine = make_machine("A100", seed=0)
        legacy = pair_seed_sequence(machine.blueprint, 0, 3)
        tagged = pair_seed_sequence(machine.blueprint, 0, 3, axis="memory")
        assert legacy.spawn_key != tagged.spawn_key
        assert not np.array_equal(
            legacy.generate_state(4), tagged.generate_state(4)
        )

    def test_default_axis_is_the_legacy_stream(self):
        machine = make_machine("A100", seed=0)
        implicit = pair_seed_sequence(machine.blueprint, 0, 3)
        explicit = pair_seed_sequence(machine.blueprint, 0, 3, axis="sm_core")
        assert implicit.spawn_key == explicit.spawn_key

    def test_memory_axis_and_grid_marker_disjoint(self):
        machine = make_machine("A100", seed=0)
        grid = pair_seed_sequence(machine.blueprint, 0, 3, memory_index=1)
        axis = pair_seed_sequence(machine.blueprint, 0, 3, axis="memory")
        assert grid.spawn_key != axis.spawn_key

    def test_power_axis_stream_distinct(self):
        machine = make_machine("A100", seed=0)
        mem = pair_seed_sequence(machine.blueprint, 0, 3, axis="memory")
        pow_ = pair_seed_sequence(machine.blueprint, 0, 3, axis="power")
        legacy = pair_seed_sequence(machine.blueprint, 0, 3)
        assert len({mem.spawn_key, pow_.spawn_key, legacy.spawn_key}) == 3

    def test_facet_marker_distinct_from_single_facet(self):
        machine = make_machine("A100", seed=0)
        single = pair_seed_sequence(machine.blueprint, 0, 3, axis="memory")
        faceted = pair_seed_sequence(
            machine.blueprint, 0, 3, axis="memory", facet_index=0
        )
        other_facet = pair_seed_sequence(
            machine.blueprint, 0, 3, axis="memory", facet_index=1
        )
        assert single.spawn_key != faceted.spawn_key
        assert faceted.spawn_key != other_facet.spawn_key


# ----------------------------------------------------------------------
# the legacy-equivalence regression (CI-gated: must never be skipped)
# ----------------------------------------------------------------------
def _golden_config(outdir):
    return LatestConfig(
        frequencies=(705.0, 1095.0, 1410.0),
        record_sm_count=4,
        min_measurements=4,
        max_measurements=8,
        rse_check_every=2,
        warmup_kernels=1,
        warmup_kernel_duration_s=0.05,
        measure_kernel_duration_s=0.08,
        delay_iterations=150,
        confirm_iterations=150,
        probe_window_s=0.4,
        settle_chunk_s=0.08,
        output_dir=str(outdir),
    )


def _campaign_digest(directory):
    digest = hashlib.sha256()
    for path in sorted(directory.iterdir()):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


class TestLegacyEquivalence:
    """Default-axis output is pinned to the pre-axis pipeline, byte for byte.

    The golden hashes were captured from the pipeline *before* the axis
    refactor landed (PR 4); any default-axis divergence — CSV bytes or
    virtual wall clock, serial or engine, any worker count — fails here.
    This test is a CI gate: the workflow fails if it is skipped.
    """

    GOLDEN = {
        None: (
            "de68405246615fb6026ac141f096db231c33f27dc430ece2d2c0b0afde1ef824",
            14.965697494749792,
        ),
        1: (
            "bb69b2b0a267cb44d20a4cd8a6fc838726d123d4bb82ed16d0186040c3cfedfe",
            19.595053604329145,
        ),
        2: (
            "bb69b2b0a267cb44d20a4cd8a6fc838726d123d4bb82ed16d0186040c3cfedfe",
            19.595053604329145,
        ),
    }

    #: memory-axis campaigns are pinned the same way; these hashes were
    #: captured from the PR-4 pipeline *before* the power-cap axis and
    #: facet-sweep generalization landed (PR 5)
    GOLDEN_MEMORY = {
        None: (
            "6e2102de7a7fdc56c5ff5d4b1110f884f03c48bf83b58cfd6105d11af2882a56",
            17.507628368017517,
        ),
        1: (
            "00fc5b04e25f59f89a0b1b2ac2dbf0593345a816bdf8f4a4a8dd53e490e5ea5e",
            18.161706628076377,
        ),
        2: (
            "00fc5b04e25f59f89a0b1b2ac2dbf0593345a816bdf8f4a4a8dd53e490e5ea5e",
            18.161706628076377,
        ),
    }

    @pytest.mark.parametrize("workers", [None, 1, 2])
    def test_default_axis_output_pinned(self, workers, tmp_path):
        machine = make_machine("A100", seed=2718)
        result = run_campaign(
            machine, _golden_config(tmp_path), workers=workers
        )
        golden_digest, golden_wall = self.GOLDEN[workers]
        assert _campaign_digest(tmp_path) == golden_digest
        assert result.wall_virtual_s == golden_wall

    @pytest.mark.parametrize("workers", [None, 1, 2])
    def test_memory_axis_output_pinned(self, workers, tmp_path):
        machine = make_machine("A100", seed=2718)
        config = _golden_config(tmp_path)
        config = LatestConfig(
            **{
                **{f.name: getattr(config, f.name) for f in fields(config)},
                "frequencies": (1215.0, 810.0, 405.0),
                "axis": "memory",
            }
        )
        result = run_campaign(machine, config, workers=workers)
        golden_digest, golden_wall = self.GOLDEN_MEMORY[workers]
        assert _campaign_digest(tmp_path) == golden_digest
        assert result.wall_virtual_s == golden_wall

    #: serial (shared-timeline) multi-facet and power-axis campaigns,
    #: captured from the pipeline *before* the serial facet loop was
    #: folded into the execution engine: name -> (config overrides, CSV
    #: digest, virtual wall clock)
    GOLDEN_SERIAL = {
        "core-x-memory-grid": (
            {"memory_frequencies": (1215.0, 810.0)},
            "e2db413a6fb36e15070b928f44eae735373bfe543cd00459b125705a5f866db3",
            36.421916983763175,
        ),
        "locked-sm-sweep": (
            {
                "frequencies": (1215.0, 810.0, 405.0),
                "axis": "memory",
                "locked_sm_mhz": (1410.0, 1095.0),
            },
            "6933ee7f51604ffc61392dea16aeebad631200ead92d776f9c51b6fe6728de43",
            36.047447699093276,
        ),
        "power-axis": (
            {"frequencies": (400.0, 330.0, 270.0), "axis": "power"},
            "f15ee35665f8f5c4a526cc022eeac375824db72bb1d63a7bce1904f1cd5d047f",
            23.165678213695227,
        ),
    }

    @pytest.mark.parametrize("case", sorted(GOLDEN_SERIAL))
    def test_serial_facets_output_pinned(self, case, tmp_path):
        overrides, golden_digest, golden_wall = self.GOLDEN_SERIAL[case]
        config = _golden_config(tmp_path)
        config = LatestConfig(
            **{
                **{f.name: getattr(config, f.name) for f in fields(config)},
                **overrides,
            }
        )
        result = run_campaign(make_machine("A100", seed=2718), config)
        assert _campaign_digest(tmp_path) == golden_digest
        assert result.wall_virtual_s == golden_wall
