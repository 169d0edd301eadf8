"""Warm daemon pool, shared-memory result channel, batch-aware cost model."""

import pytest

from repro import make_machine
from repro.core.results import PairResult, SwitchingLatencyMeasurement
from repro.errors import ConfigError
from repro.exec import WarmPool, pack_results, unpack_results
from repro.exec.engine import run_campaign_parallel
from repro.exec.jobs import PairJobResult, ProbeCostModel
from repro.core.campaign import ProbeInfo
from tests.conftest import fast_config
from tests.test_exec_engine import _campaign_fingerprint


@pytest.fixture(scope="module")
def warm_pool():
    with WarmPool(2) as pool:
        yield pool


class TestWarmPool:
    def test_results_identical_to_cold_engine(self, warm_pool):
        cfg = fast_config((705.0, 1095.0, 1410.0))
        base = run_campaign_parallel(make_machine("A100", seed=7), cfg)
        warm = run_campaign_parallel(
            make_machine("A100", seed=7), cfg, pool=warm_pool
        )
        assert _campaign_fingerprint(warm) == _campaign_fingerprint(base)
        assert warm.wall_virtual_s == base.wall_virtual_s

    def test_payload_cached_across_campaigns(self, warm_pool):
        cfg = fast_config((705.0, 1410.0))
        run_campaign_parallel(make_machine("A100", seed=3), cfg, pool=warm_pool)
        installs = warm_pool.stats["payload_installs"]
        hits = warm_pool.stats["payload_hits"]
        # Identical campaign shape: payload travels zero more times.
        run_campaign_parallel(make_machine("A100", seed=3), cfg, pool=warm_pool)
        assert warm_pool.stats["payload_installs"] == installs
        assert warm_pool.stats["payload_hits"] == hits + 1

    def test_worker_error_surfaces(self, warm_pool):
        with pytest.raises(RuntimeError, match="warm worker failed"):
            warm_pool.run_units(object(), [[None]])

    def test_closed_pool_rejects_work(self):
        pool = WarmPool(1)
        pool.close()
        with pytest.raises(ConfigError):
            pool.run_units(None, [[None]])

    def test_invalid_worker_count(self):
        with pytest.raises(ConfigError):
            WarmPool(0)


def _measurement(i, gt=None, outlier=False):
    return SwitchingLatencyMeasurement(
        latency_s=0.003 + i * 1e-6,
        ts_acc=1.5 + i,
        te_acc=1.503 + i,
        n_valid_sm=100 + i,
        window_iterations=4000 + i,
        ground_truth_s=gt,
        ground_truth_outlier=outlier,
    )


class TestShmChannel:
    def test_roundtrip_exact(self):
        pair = PairResult(init_mhz=705.0, target_mhz=1410.0)
        pair.measurements = [
            _measurement(0, gt=0.0029),
            _measurement(1, gt=None),
            _measurement(2, gt=0.0031, outlier=True),
        ]
        other = PairResult(
            init_mhz=1410.0,
            target_mhz=705.0,
            skipped=True,
            skip_reason="power-throttled",
        )
        results = [
            PairJobResult(index=4, pair=pair, elapsed_virtual_s=12.5),
            PairJobResult(index=2, pair=other, elapsed_virtual_s=0.25),
        ]
        envelope = pack_results(results)
        assert envelope[0] == "shm"
        out = unpack_results(envelope)
        assert [r.index for r in out] == [4, 2]
        assert out[0].elapsed_virtual_s == 12.5
        assert out[0].pair.measurements == pair.measurements
        assert out[1].pair.skipped and not out[1].pair.measurements
        assert out[1].pair.skip_reason == "power-throttled"

    def test_empty_batch_falls_back_to_pickle(self):
        pair = PairResult(init_mhz=705.0, target_mhz=1410.0, skipped=True)
        results = [PairJobResult(index=0, pair=pair, elapsed_virtual_s=1.0)]
        envelope = pack_results(results)
        assert envelope[0] == "pickle"
        assert unpack_results(envelope) is results


class TestBatchAwareCostModel:
    def _probe(self, latencies):
        return ProbeInfo(
            max_latency_s=max(lat for *_, lat in latencies),
            median_latency_s=sorted(lat for *_, lat in latencies)[
                len(latencies) // 2
            ],
            pair_latencies=latencies,
        )

    def test_fixed_pass_term_is_additive(self):
        probe = self._probe([(705.0, 1410.0, 0.004), (1410.0, 705.0, 0.006)])
        bare = ProbeCostModel(probe)
        offset = ProbeCostModel(probe, fixed_pass_s=0.5)
        for pair in [(705.0, 1410.0), (1410.0, 705.0), (705.0, 900.0)]:
            assert offset.cost(*pair) == pytest.approx(
                bare.cost(*pair) + 0.5
            )

    def test_cross_facet_ordering_respects_fixed_pass(self):
        """A slow locked-SM facet outranks a fast one whose probe
        latencies are nominally larger — the multi-facet bugfix."""
        fast_facet = ProbeCostModel(
            self._probe([(1215.0, 810.0, 0.006)]), fixed_pass_s=0.01
        )
        slow_facet = ProbeCostModel(
            self._probe([(1215.0, 810.0, 0.004)]), fixed_pass_s=0.09
        )
        assert slow_facet.cost(1215.0, 810.0) > fast_facet.cost(1215.0, 810.0)

    def test_probe_latency_ordering_within_facet_unchanged(self):
        probe = self._probe(
            [(705.0, 1410.0, 0.004), (1410.0, 705.0, 0.006)]
        )
        model = ProbeCostModel(probe, fixed_pass_s=0.25)
        assert model.cost(1410.0, 705.0) > model.cost(705.0, 1410.0)
