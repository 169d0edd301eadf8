"""Tests for campaign configuration validation."""

import numpy as np
import pytest

from repro.core.config import LatestConfig
from repro.errors import ConfigError
from repro.service.requests import CampaignRequest


def config(**kw):
    base = dict(frequencies=(705.0, 1410.0))
    base.update(kw)
    return LatestConfig(**base)


class TestValidation:
    def test_defaults_match_tool(self):
        cfg = config()
        assert cfg.rse_threshold == 0.05
        assert cfg.throttle_check_every == 5
        assert cfg.rse_check_every == 25
        assert cfg.detection_sigmas == 2.0
        assert cfg.detection_criterion == "two-sigma"

    def test_needs_two_frequencies(self):
        with pytest.raises(ConfigError):
            LatestConfig(frequencies=(705.0,))

    def test_duplicate_frequencies_rejected(self):
        with pytest.raises(ConfigError):
            LatestConfig(frequencies=(705.0, 705.0))

    def test_unknown_criterion_rejected(self):
        with pytest.raises(ConfigError):
            config(detection_criterion="magic")

    def test_unknown_window_policy_rejected(self):
        with pytest.raises(ConfigError):
            config(window_policy="huge")

    def test_max_below_min_measurements(self):
        with pytest.raises(ConfigError):
            config(min_measurements=50, max_measurements=10)

    def test_negative_rse_rejected(self):
        with pytest.raises(ConfigError):
            config(rse_threshold=-0.1)

    def test_zero_delay_rejected(self):
        with pytest.raises(ConfigError):
            config(delay_iterations=0)

    def test_non_positive_frequencies_rejected(self):
        with pytest.raises(ConfigError):
            LatestConfig(frequencies=(705.0, -1410.0))
        with pytest.raises(ConfigError):
            LatestConfig(frequencies=(0.0, 1410.0))

    def test_memory_frequency_invariants(self):
        with pytest.raises(ConfigError):
            config(memory_frequencies=())
        with pytest.raises(ConfigError):
            config(memory_frequencies=(1215.0, 1215.0))
        with pytest.raises(ConfigError):
            config(memory_frequencies=(1215.0, -810.0))
        assert config(memory_frequencies=(1215.0,)).memory_frequencies == (1215.0,)

    def test_pass_block_none_rejected(self):
        """There is no separate unbatched loop to select: block 1 is it."""
        with pytest.raises(ConfigError, match="use 1 for the unbatched"):
            config(pass_block_size=None)
        with pytest.raises(ConfigError):
            config(pass_block_size=0)
        assert config(pass_block_size=1).pass_block_size == 1


class TestIntegerFields:
    """Integer fields reject non-integers from every entry point,
    including a service request's JSON config."""

    @pytest.mark.parametrize(
        "field, value",
        [
            ("pass_block_size", 2.5),
            ("delay_iterations", 100.5),
            ("record_sm_count", 2.5),
            ("min_measurements", 4.5),
            ("max_measurements", 60.0),
            ("rse_check_every", True),
            ("max_job_retries", False),
            ("throttle_check_every", "5"),
        ],
    )
    def test_non_integer_rejected(self, field, value):
        request = CampaignRequest(
            config={"frequencies": [705.0, 1410.0], field: value}
        )
        with pytest.raises(ConfigError, match=f"{field} must be an integer"):
            request.build_config()

    def test_numpy_integers_accepted(self):
        cfg = config(
            min_measurements=np.int64(30), record_sm_count=np.int32(4),
            pass_block_size=np.int64(5),
        )
        assert cfg.min_measurements == 30 and cfg.pass_block_size == 5

    def test_optional_integer_accepts_none(self):
        assert config(record_sm_count=None).record_sm_count is None


class TestHelpers:
    def test_pairs_ordered_and_complete(self):
        cfg = LatestConfig(frequencies=(705.0, 1095.0, 1410.0))
        pairs = cfg.pairs()
        assert len(pairs) == 6
        assert (705.0, 1410.0) in pairs
        assert (1410.0, 705.0) in pairs
        assert all(a != b for a, b in pairs)

    def test_stopping_rule_mirrors_fields(self):
        cfg = config(
            rse_threshold=0.1,
            min_measurements=10,
            max_measurements=50,
            rse_check_every=5,
        )
        rule = cfg.stopping_rule()
        assert rule.threshold == 0.1
        assert rule.min_measurements == 10
        assert rule.max_measurements == 50
        assert rule.check_every == 5

    def test_with_frequencies(self):
        cfg = config().with_frequencies((840.0, 975.0))
        assert cfg.frequencies == (840.0, 975.0)

    def test_memory_plan_legacy_sentinel(self):
        assert config().memory_plan() == (None,)
        assert config(
            memory_frequencies=(1215.0, 810.0)
        ).memory_plan() == (1215.0, 810.0)

    def test_grid_points_memory_major(self):
        cfg = config(memory_frequencies=(1215.0, 810.0))
        points = cfg.grid_points()
        assert len(points) == 2 * len(cfg.pairs())
        # memory-major: the first facet's pairs come first, in pair order
        assert points[: len(cfg.pairs())] == [
            (a, b, 1215.0) for a, b in cfg.pairs()
        ]
        assert points[len(cfg.pairs()):] == [
            (a, b, 810.0) for a, b in cfg.pairs()
        ]

    def test_grid_points_legacy(self):
        assert config().grid_points() == [
            (a, b, None) for a, b in config().pairs()
        ]

    def test_with_memory_frequencies(self):
        cfg = config().with_memory_frequencies((1215.0, 810.0))
        assert cfg.memory_frequencies == (1215.0, 810.0)
        assert cfg.with_memory_frequencies(None).memory_frequencies is None
