"""Tests for k-dist diagnostics, silhouette score, and adaptive DBSCAN."""

import numpy as np
import pytest

from repro.clustering.adaptive import (
    AdaptiveDbscanConfig,
    adaptive_dbscan,
)
from repro.clustering.kdist import kdist_curve, knee_point, mean_kdist_ratio
from repro.clustering.silhouette import silhouette_samples, silhouette_score
from repro.errors import ConfigError


class TestKdist:
    def test_curve_sorted_ascending(self):
        rng = np.random.default_rng(0)
        curve = kdist_curve(rng.normal(0, 1, 50), k=4)
        assert (np.diff(curve) >= 0).all()

    def test_uniform_spacing_kdist(self):
        x = np.arange(10.0)
        curve = kdist_curve(x, k=1)
        assert curve[0] == pytest.approx(1.0)

    def test_needs_more_than_k(self):
        with pytest.raises(ConfigError):
            kdist_curve([1.0, 2.0], k=3)

    def test_knee_of_hockey_stick(self):
        flat = np.full(50, 1.0)
        steep = 1.0 + np.arange(10) * 5.0
        idx, value = knee_point(np.concatenate([flat, steep]))
        assert 40 <= idx <= 55

    def test_knee_needs_three_points(self):
        with pytest.raises(ConfigError):
            knee_point([1.0, 2.0])

    def test_knee_flat_curve(self):
        # Degenerate flat curve: every point sits on the chord, so the
        # max-distance construction falls back to the first point.
        idx, value = knee_point(np.full(10, 3.5))
        assert idx == 0
        assert value == 3.5

    def test_knee_three_point_minimum(self):
        idx, value = knee_point([0.0, 1.0, 1.0])
        assert idx == 1
        assert value == 1.0

    def test_knee_linear_curve_no_spurious_interior(self):
        # A perfectly linear curve has zero chord distance everywhere;
        # argmax ties resolve to index 0 rather than a random interior.
        idx, _ = knee_point(np.linspace(0.0, 9.0, 10))
        assert idx == 0

    def test_knee_zero_chord_identical_endpoints(self):
        # Endpoints equal but interior varies: chord is horizontal, the
        # knee is the farthest interior point.
        idx, value = knee_point([1.0, 5.0, 1.0])
        assert idx == 1
        assert value == 5.0

    def test_mean_kdist_ratio_small_for_clustered_data(self):
        """The paper's observation: for min_pts in the 2-4 % range the
        mean k-NN distance stays below ~20 % of the 5-95 quantile range."""
        rng = np.random.default_rng(1)
        data = np.concatenate(
            [rng.normal(10.0, 0.3, 180), rng.normal(50.0, 0.5, 20)]
        )
        k = max(4, int(0.03 * len(data)))
        assert mean_kdist_ratio(data, k) < 0.20


class TestSilhouette:
    def test_perfect_separation_near_one(self):
        x = np.concatenate([np.full(10, 0.0), np.full(10, 100.0)])
        labels = np.array([0] * 10 + [1] * 10)
        assert silhouette_score(x, labels) > 0.99

    def test_overlapping_clusters_low(self):
        rng = np.random.default_rng(0)
        x = np.concatenate([rng.normal(0, 1, 40), rng.normal(0.5, 1, 40)])
        labels = np.array([0] * 40 + [1] * 40)
        assert silhouette_score(x, labels) < 0.4

    def test_range_bounds(self):
        rng = np.random.default_rng(1)
        x = rng.normal(0, 1, 30)
        labels = rng.integers(0, 2, 30)
        s = silhouette_samples(x, labels)
        assert (s >= -1.0).all() and (s <= 1.0).all()

    def test_noise_excluded(self):
        x = np.array([0.0, 0.1, 0.2, 100.0, 100.1, 100.2, 5000.0])
        labels = np.array([0, 0, 0, 1, 1, 1, -1])
        assert silhouette_score(x, labels) > 0.99

    def test_single_cluster_rejected(self):
        with pytest.raises(ConfigError):
            silhouette_score([1.0, 2.0], [0, 0])

    def test_singleton_cluster_scores_zero(self):
        x = np.array([0.0, 0.1, 0.2, 50.0])
        labels = np.array([0, 0, 0, 1])
        s = silhouette_samples(x, labels)
        assert s[-1] == 0.0


class TestAdaptiveDbscan:
    def test_clean_unimodal_no_outliers(self):
        rng = np.random.default_rng(0)
        data = rng.normal(10.0, 0.5, 300)
        res = adaptive_dbscan(data)
        assert res.converged
        assert res.n_clusters == 1
        assert res.outlier_ratio <= 0.10

    def test_injected_outliers_flagged(self):
        rng = np.random.default_rng(1)
        data = np.concatenate(
            [rng.normal(10.0, 0.3, 280), [50.0, 60.0, 70.0, 80.0]]
        )
        res = adaptive_dbscan(data)
        flagged = set(np.flatnonzero(res.outlier_mask))
        assert {280, 281, 282, 283} <= flagged
        assert res.outlier_ratio < 0.10

    def test_multi_cluster_preserved(self):
        rng = np.random.default_rng(2)
        data = np.concatenate(
            [rng.normal(6.0, 0.2, 200), rng.normal(200.0, 4.0, 60)]
        )
        res = adaptive_dbscan(data)
        assert res.n_clusters == 2

    def test_minpts_schedule_descends_4_to_2_percent(self):
        cfg = AdaptiveDbscanConfig()
        schedule = cfg.minpts_schedule(400)
        assert schedule[0] == 16
        assert schedule[-1] >= 8
        assert all(a - b == 2 for a, b in zip(schedule, schedule[1:]))

    def test_minpts_floor_respected(self):
        cfg = AdaptiveDbscanConfig()
        assert min(cfg.minpts_schedule(50)) >= cfg.minpts_floor

    def test_degenerate_constant_data(self):
        res = adaptive_dbscan(np.full(50, 5.0))
        assert res.converged
        assert res.n_clusters == 1
        assert not res.outlier_mask.any()

    def test_all_noise_keeps_every_point(self):
        # A sparse 12-measurement pair where no point has min_pts = 4
        # neighbours within eps: the only configuration tried labels all
        # of it noise, which would leave the pair with nothing to report.
        latencies_ms = [
            15.1341, 15.3236, 15.9564, 16.3873, 16.9419, 17.5873,
            17.6448, 17.7044, 18.2823, 18.3362, 18.366, 19.3612,
        ]
        res = adaptive_dbscan(np.asarray(latencies_ms) * 1e-3)
        assert not res.converged
        assert res.attempts == ((4, 1.0),)
        assert not res.outlier_mask.any()
        assert res.kept_mask.all()
        assert res.n_clusters == 1
        assert res.outlier_ratio == 0.0

    def test_too_few_samples_rejected(self):
        with pytest.raises(ConfigError):
            adaptive_dbscan([1.0, 2.0, 3.0])

    def test_attempt_trace_recorded(self):
        rng = np.random.default_rng(3)
        res = adaptive_dbscan(rng.normal(5.0, 1.0, 200))
        assert len(res.attempts) >= 1
        assert all(mp >= 4 for mp, _ in res.attempts)

    def test_eps_from_quantile_range(self):
        rng = np.random.default_rng(4)
        data = rng.normal(0.0, 1.0, 300)
        cfg = AdaptiveDbscanConfig(eps_multiplier=0.15)
        res = adaptive_dbscan(data, cfg)
        from repro.stats.descriptive import quantile_range

        assert res.eps == pytest.approx(0.15 * quantile_range(data))

    def test_invalid_config(self):
        with pytest.raises(ConfigError):
            AdaptiveDbscanConfig(eps_multiplier=-1.0)
        with pytest.raises(ConfigError):
            AdaptiveDbscanConfig(minpts_lo_frac=0.1, minpts_hi_frac=0.05)
