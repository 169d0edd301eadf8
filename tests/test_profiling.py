"""The ``--profile`` stage breakdown splits the pass loop into layers."""

from __future__ import annotations

import cProfile

import pytest

from repro import make_machine, run_campaign
from repro.profiling import STAGE_ANCHORS, render_stage_breakdown, stage_times

from tests.conftest import fast_config

PASS_LOOP_STAGES = ("simulate", "materialize", "evaluate")


@pytest.fixture(scope="module")
def profile_path(tmp_path_factory):
    """pstats of one tiny pass-block campaign."""
    machine = make_machine("A100", seed=5)
    config = fast_config((705.0, 1410.0), min_measurements=6, max_measurements=8)
    profiler = cProfile.Profile()
    profiler.enable()
    run_campaign(machine, config, workers=1)
    profiler.disable()
    path = tmp_path_factory.mktemp("profile") / "campaign.pstats"
    profiler.dump_stats(str(path))
    return str(path)


def test_pass_loop_stages_are_anchored():
    for stage in PASS_LOOP_STAGES:
        assert stage in STAGE_ANCHORS


def test_pass_loop_stages_split_batch_step(profile_path):
    by_stage, total = stage_times(profile_path)
    for stage in PASS_LOOP_STAGES:
        assert by_stage[stage] > 0.0, stage
    assert sum(by_stage[s] for s in PASS_LOOP_STAGES) <= by_stage["batch-step"]
    assert by_stage["batch-step"] <= total


def test_breakdown_lists_every_stage(profile_path):
    text = render_stage_breakdown(profile_path)
    for stage in STAGE_ANCHORS:
        assert f"  {stage} " in text
