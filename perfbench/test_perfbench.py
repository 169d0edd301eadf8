"""Tests of the benchmark itself: ``python -m pytest perfbench``."""

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from repro import make_machine, run_campaign
from repro.core.config import LatestConfig

import workloads
from metrics import tail_percentile
from tracing import SELF_METRICS, LayerTracer

HERE = Path(__file__).resolve().parent

SMALL = dict(
    workloads.SERVICE_FIDELITY, frequencies=(705.0, 1095.0, 1410.0), pass_block_size=25
)


def _small_campaign(seed=5):
    return run_campaign(make_machine("A100", seed=seed), LatestConfig(**SMALL), workers=1)


@pytest.mark.parametrize("n, expected", [(10, None), (11, 9), (40, 75), (1000, 99)])
def test_tail_percentile_examples(n, expected):
    assert tail_percentile(n) == expected


def test_tail_percentile_is_highest_with_ten_beyond():
    for n in range(11, 3000):
        p = tail_percentile(n)
        assert n * (100 - p) / 100 >= 10
        assert n * (100 - (p + 1)) / 100 < 10


def test_wrappers_removed_after_traced_run():
    tracer = LayerTracer()
    originals = tracer.snapshot()
    with pytest.raises(RuntimeError):
        with tracer.installed():
            installed = tracer.snapshot()
            assert all(a is not b for a, b in zip(installed, originals))
            raise RuntimeError("campaign crashed mid-trace")
    with tracer.installed():
        _small_campaign()
    assert all(a is b for a, b in zip(tracer.snapshot(), originals))


def test_traced_and_untraced_results_are_bit_identical(tmp_path):
    untraced = _small_campaign()
    tracer = LayerTracer()
    with tracer.installed():
        traced = _small_campaign()
    assert workloads.fingerprint(traced, tmp_path) == workloads.fingerprint(
        untraced, tmp_path
    )
    measured = sum(p.n_measurements for p in untraced.iter_measured())
    assert tracer.counts["passblock.accepted"] == measured
    assert tracer.counts["phase3.block_calls"] > 0
    assert tracer.counts["phase2.calls"] >= measured


def test_layer_times_add_up_to_wall():
    tracer = LayerTracer()
    with tracer.installed():
        _small_campaign()
    m = tracer.metrics(wall_s=3.0, cpu_s=2.5, overhead_pct=1.0)
    total = sum(m[name] for name in SELF_METRICS)
    total += m["trace.unattributed_s"] + m["trace.offcpu_s"]
    assert total == pytest.approx(m["trace.wall_s"], abs=1e-9)


def _round_counts(fleet_size, tmp_path):
    plan = [requests[:3] for requests in workloads.tenant_requests(seed=7, unit=0)]
    observed = {"calibcache.hits": 0, "calibcache.misses": 0, "journal.appends": 0}
    outcomes, _ = workloads.run_service_round(plan, tmp_path, fleet_size, observed)
    assert all(o.result is not None for o in outcomes)
    return observed


def test_service_hits_and_misses_do_not_depend_on_fleet_size(tmp_path):
    one = _round_counts(1, tmp_path)
    two = _round_counts(2, tmp_path)
    assert one == two
    # even tenants: one miss then hits; odd tenants: two fresh facets each
    assert one["calibcache.hits"] == 2 * 2
    assert one["calibcache.misses"] == 2 * 1 + 2 * 3 * 2


def test_command_fails_without_program_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sm-grid-a100",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_benchmark_json_matches_what_the_command_prints():
    import json

    import run

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        name: w.why for name, w in workloads.WORKLOADS.items()
    }
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.UNITS
    layer_metrics = LayerTracer().metrics(wall_s=1.0, cpu_s=1.0, overhead_pct=0.0)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        name: run._layer_unit(name) for name in layer_metrics
    }
