"""The benchmark's workloads: seeded inputs, timed runs and output checks.

Two kinds of unit are timed:

* ``campaign`` workloads run one cold engine campaign per unit
  (``run_campaign(workers=1)`` on a fresh machine, pass-block path, no
  journal, sinks or calibration cache), each unit on a fresh seed.  The
  switch window is sized per campaign from its probe, so work per campaign
  varies with the seed; small grids and many units per run average that
  out.
* ``service`` workloads run one *round* per unit: a fresh
  :class:`~repro.service.service.CampaignService` (``fleet_size=2``,
  journal root, one shared calibration cache) driven by four tenant
  coroutines in a closed loop, each submitting its next campaign only
  after the previous result arrived, with one ``events()`` subscriber per
  campaign.  Each round draws fresh seeds, so a run averages over inputs:
  an even tenant's repeats share one seed, so short rounds keep the number
  of distinct seeds per run up.

Inputs derive only from the ``--seed`` argument; the program receives the
generated machines, configs and requests.
"""

from __future__ import annotations

import asyncio
import hashlib
import math
import resource
import shutil
import tempfile
import time
import zlib
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro import machine as machine_mod
from repro import run_campaign
from repro.core.config import LatestConfig
from repro.core.csvio import write_campaign_csvs
from repro.core.stream import FacetPrepared, PairMeasured
from repro.errors import ServiceUnavailable
from repro.service.requests import CampaignRequest
from repro.service.service import CampaignService

from metrics import (
    REFERENCE_NOMINAL_S,
    percentile,
    reference_seconds,
    summary,
    tail_percentile,
)

#: a ``--seed`` kept out of tuning, for confirming later performance claims
HELD_OUT_SEED = 424242

#: the paper-reproduction suite's bench fidelity (benchmarks/conftest.py)
#: with half the measurements per pair: twice the campaigns fit in a run,
#: which averages out the per-campaign switch-window sizing, and every pair
#: still reaches the 12 measurements the outlier filter needs
CAMPAIGN_FIDELITY = dict(
    record_sm_count=12,
    min_measurements=15,
    max_measurements=30,
    rse_check_every=5,
    warmup_kernels=1,
    warmup_kernel_duration_s=0.08,
    measure_kernel_duration_s=0.12,
    delay_iterations=250,
    confirm_iterations=250,
    probe_window_s=0.5,
    settle_chunk_s=0.10,
    pass_block_size=25,
)

#: the small per-campaign fidelity of the service tests
SERVICE_FIDELITY = dict(
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
)

TENANTS = 4
CAMPAIGNS_PER_TENANT = 5
FLEET_SIZE = 2
#: even tenants repeat this SM-axis recipe (calibration cache hits)
SM_RECIPE = dict(SERVICE_FIDELITY, frequencies=[705.0, 1095.0, 1410.0])
#: odd tenants submit fresh seeds of this 2-facet memory-axis recipe
MEMORY_RECIPE = dict(
    SERVICE_FIDELITY,
    frequencies=[1215.0, 810.0, 405.0],
    axis="memory",
    locked_sm_mhz=[1095.0, 1410.0],
)


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "campaign" | "service"
    why: str
    stresses: tuple[str, ...]
    bypasses: tuple[str, ...]
    gpu: str = "A100"
    frequencies: tuple[float, ...] = ()

    def recipe(self) -> dict:
        if self.kind == "campaign":
            return {
                "gpu": self.gpu,
                "config": dict(CAMPAIGN_FIDELITY, frequencies=list(self.frequencies)),
                "pairs": len(self.frequencies) * (len(self.frequencies) - 1),
                "workers": 1,
            }
        return {
            "tenants": TENANTS,
            "campaigns_per_tenant": CAMPAIGNS_PER_TENANT,
            "loop": "closed",
            "fleet_size": FLEET_SIZE,
            "even_tenants": {"gpu": "A100", "config": SM_RECIPE, "seed": "per tenant"},
            "odd_tenants": {
                "gpu": "A100",
                "config": MEMORY_RECIPE,
                "seed": "per campaign",
            },
        }


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="sm-grid-a100",
            kind="campaign",
            why=(
                "A100 SM grid of 5-20 ms switches: the simulate/evaluate hot "
                "path with almost no wasted speculation"
            ),
            stresses=("phase2", "phase3", "passblock", "clustering", "stats", "exec"),
            bypasses=("calibcache", "journal", "scheduler", "bridge"),
            gpu="A100",
            frequencies=(705.0, 975.0, 1215.0, 1410.0),
        ),
        Workload(
            name="sm-grid-gh200",
            kind="campaign",
            why=(
                "GH200 grid with the 1170/1260/1875 MHz bands: 100+ ms switches "
                "force window growth and pass-block rollbacks"
            ),
            stresses=("phase2", "passblock", "phase3", "exec"),
            bypasses=("calibcache", "journal", "scheduler", "bridge"),
            gpu="GH200",
            frequencies=(1170.0, 1260.0, 1875.0),
        ),
        Workload(
            name="service-tenants",
            kind="service",
            why=(
                "4 closed-loop tenants on one service: calibration cache hits "
                "and misses, journal fsync, event bridge and scheduler queue wait"
            ),
            stresses=(
                "calibration", "calibcache", "journal", "stream", "scheduler",
                "bridge",
            ),
            # 4-8 measurements per pair: below the outlier filter's 12
            bypasses=("clustering",),
        ),
    )
}


def peak_rss_mb() -> float:
    """This process's peak resident memory so far."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def derive_seed(seed: int, *path: int) -> int:
    """A machine seed from the benchmark seed and a position in the inputs."""
    return int(np.random.SeedSequence([seed, *path]).generate_state(1)[0])


def _tag(name: str) -> int:
    return zlib.crc32(name.encode())


# ----------------------------------------------------------------------
# outputs and checks
# ----------------------------------------------------------------------
@dataclass
class Outcome:
    """One campaign's result (``None`` when it failed) and its host time."""

    key: tuple
    result: object
    latency_s: float
    grid: int


def fingerprint(result, scratch: Path) -> str:
    """Digest of a result's CSV bytes and ``wall_virtual_s``."""
    directory = Path(tempfile.mkdtemp(dir=scratch))
    try:
        digest = hashlib.sha256(repr(result.wall_virtual_s).encode())
        for path in sorted(write_campaign_csvs(directory, result)):
            digest.update(path.name.encode())
            digest.update(path.read_bytes())
        return digest.hexdigest()
    finally:
        shutil.rmtree(directory, ignore_errors=True)


def check_result(result, grid: int) -> list[str]:
    """Shape and sanity failures of one campaign result (empty when fine)."""
    problems = []
    pairs = list(result.pairs.values())
    measured = sum(1 for p in pairs if not p.skipped and p.n_measurements > 0)
    skipped = sum(1 for p in pairs if p.skipped)
    if measured + skipped != grid or len(pairs) != grid:
        problems.append(f"measured {measured} + skipped {skipped} != grid {grid}")
    for p in result.iter_measured():
        lat = p.latencies_s(without_outliers=False)
        if not (np.all(np.isfinite(lat)) and np.all(lat > 0)):
            problems.append(f"non-finite or non-positive latency at {p.key}")
    return problems


@dataclass
class Tally:
    """What a workload run measured and checked."""

    attempted: int = 0
    failed: int = 0
    pairs_attempted: int = 0
    pairs_ok: int = 0
    measurements: int = 0
    rel_errors: list = field(default_factory=list)
    problems: list = field(default_factory=list)
    #: counts the untraced run observes through public outputs
    observed: dict = field(default_factory=lambda: {
        "measurements": 0, "calibcache.hits": 0, "calibcache.misses": 0,
        "journal.appends": 0,
    })

    def add(self, outcome: Outcome) -> None:
        self.attempted += 1
        self.pairs_attempted += outcome.grid
        result = outcome.result
        if result is None:
            self.failed += 1
            self.problems.append(f"campaign {outcome.key} failed")
            return
        problems = check_result(result, outcome.grid)
        if problems:
            self.failed += 1
            self.problems.extend(f"{outcome.key}: {p}" for p in problems)
            return
        for p in result.iter_measured():
            self.pairs_ok += 1
            self.measurements += p.n_measurements
            lat = p.latencies_s(without_outliers=False)
            truth = p.ground_truths_s(without_outliers=False)
            self.rel_errors.append(np.abs(lat - truth) / truth)
        self.observed["measurements"] = self.measurements

    def fail(self, problem: str) -> None:
        self.failed += 1
        self.problems.append(problem)


# ----------------------------------------------------------------------
# campaign workloads
# ----------------------------------------------------------------------
def campaign_seed(workload: Workload, seed: int, unit: int) -> int:
    """Unit ``unit``'s machine seed."""
    return derive_seed(seed, _tag(workload.name), unit)


def campaign_config(workload: Workload) -> LatestConfig:
    return LatestConfig(**workload.recipe()["config"])


def run_campaign_unit(workload: Workload, machine_seed: int) -> tuple[object, float]:
    """One cold campaign, machine build included; returns (result, wall)."""
    t0 = time.perf_counter()
    machine = machine_mod.make_machine(workload.gpu, seed=machine_seed)
    result = run_campaign(machine, campaign_config(workload), workers=1)
    return result, time.perf_counter() - t0


# ----------------------------------------------------------------------
# service workload
# ----------------------------------------------------------------------
def tenant_requests(seed: int, unit: int) -> list[list[CampaignRequest]]:
    """Each tenant's campaign sequence for round ``unit``."""
    tag = _tag("service-tenants")
    plan = []
    for t in range(TENANTS):
        if t % 2 == 0:
            shared = derive_seed(seed, tag, unit, t)
            seeds = [shared] * CAMPAIGNS_PER_TENANT
            recipe = SM_RECIPE
        else:
            seeds = [
                derive_seed(seed, tag, unit, t, k) for k in range(CAMPAIGNS_PER_TENANT)
            ]
            recipe = MEMORY_RECIPE
        plan.append([
            CampaignRequest(tenant=f"tenant{t}", seed=s, config=dict(recipe))
            for s in seeds
        ])
    return plan


def request_grid(request: CampaignRequest) -> int:
    config = request.build_config()
    return len(config.pairs()) * len(config.facet_plan())


async def _subscribe(service, campaign_id, observed: dict, tracer) -> None:
    async for event in service.events(campaign_id):
        if tracer is not None:
            tracer.received(event)
        if isinstance(event, FacetPrepared) and event.prepared:
            observed["calibcache.hits" if event.cache_hit else "calibcache.misses"] += 1
        elif isinstance(event, PairMeasured) and not event.replayed:
            observed["journal.appends"] += 1


async def _service_round(plan, work: Path, fleet_size: int, observed: dict, tracer):
    service = CampaignService(
        fleet_size=fleet_size,
        journal_root=str(work / "journal"),
        calibration_cache=str(work / "calibration"),
    )
    await service.start()
    outcomes: list[Outcome] = []

    async def tenant(t: int) -> None:
        for k, request in enumerate(plan[t]):
            t_submit = time.perf_counter()
            campaign_id = await service.submit(request)
            subscriber = asyncio.ensure_future(
                _subscribe(service, campaign_id, observed, tracer)
            )
            try:
                result = await service.result(campaign_id)
            except ServiceUnavailable:
                result = None
            latency = time.perf_counter() - t_submit
            await subscriber
            outcomes.append(Outcome((t, k), result, latency, request_grid(request)))

    t0 = time.perf_counter()
    try:
        await asyncio.gather(*(tenant(t) for t in range(TENANTS)))
        wall = time.perf_counter() - t0
    finally:
        await service.stop()
    return outcomes, wall


def run_service_round(plan, scratch: Path, fleet_size: int, observed: dict, tracer=None):
    """One round in a fresh service over a fresh journal root and cache."""
    work = Path(tempfile.mkdtemp(dir=scratch))
    try:
        return asyncio.run(_service_round(plan, work, fleet_size, observed, tracer))
    finally:
        shutil.rmtree(work, ignore_errors=True)


# ----------------------------------------------------------------------
# runs
# ----------------------------------------------------------------------
@dataclass
class Run:
    """Timed units of one workload run and what they produced."""

    walls: list = field(default_factory=list)
    #: per unit, reference-host seconds per host second (see ``reference_seconds``)
    speed: list = field(default_factory=list)
    unit_campaigns: list = field(default_factory=list)
    unit_measurements: list = field(default_factory=list)
    #: submit-to-result seconds per campaign, scaled like ``walls``
    latencies: list = field(default_factory=list)
    outcomes: list = field(default_factory=list)
    tally: Tally = field(default_factory=Tally)
    #: peak resident memory of the process over the whole run
    peak_rss_mb: float = 0.0


def run_units(workload: Workload, seed: int, seconds: float, scratch: Path,
              units: int | None = None, tracer=None) -> Run:
    """Time units until ``seconds`` pass (at least two), or exactly ``units``."""
    run = Run()
    k = 0
    started = time.perf_counter()
    ref_before = reference_seconds()
    while True:
        if units is not None:
            if k >= units:
                break
        elif k >= 2 and time.perf_counter() - started >= seconds:
            break
        before = run.tally.measurements
        if workload.kind == "campaign":
            try:
                result, wall = run_campaign_unit(workload, campaign_seed(workload, seed, k))
            except Exception as exc:  # a crashed campaign is a failed one
                result, wall = None, float("nan")
                run.tally.problems.append(f"unit {k}: {type(exc).__name__}: {exc}")
            outcomes = [Outcome((k,), result, wall, workload.recipe()["pairs"])]
        else:
            outcomes, wall = run_service_round(
                tenant_requests(seed, k), scratch, FLEET_SIZE, run.tally.observed, tracer
            )
            outcomes.sort(key=lambda o: o.key)
            for o in outcomes:
                o.key = (k, *o.key)
        for outcome in outcomes:
            run.tally.add(outcome)
        run.outcomes.extend(outcomes)
        ref_after = reference_seconds()
        speed = 2 * REFERENCE_NOMINAL_S / (ref_before + ref_after)
        ref_before = ref_after
        run.speed.append(speed)
        run.latencies.extend(o.latency_s * speed for o in outcomes)
        run.walls.append(wall)
        run.unit_campaigns.append(len(outcomes))
        run.unit_measurements.append(run.tally.measurements - before)
        k += 1
    run.peak_rss_mb = peak_rss_mb()
    return run


def check_determinism(workload: Workload, run: Run, seed: int, scratch: Path) -> None:
    """Same inputs must give identical bytes; failures count as failed campaigns."""
    tally = run.tally
    if workload.kind == "campaign":
        first = run.outcomes[0].result
        if first is not None:
            try:
                again, _ = run_campaign_unit(workload, campaign_seed(workload, seed, 0))
            except Exception as exc:
                tally.fail(f"unit 0 again: {type(exc).__name__}: {exc}")
                return
            if fingerprint(again, scratch) != fingerprint(first, scratch):
                tally.fail("unit 0 run again gave different bytes")
        return
    # even tenants repeat one request per round; round 0's first campaigns
    # are compared with standalone runs
    prints = {
        o.key: fingerprint(o.result, scratch)
        for o in run.outcomes
        if o.result is not None and (o.key[1] % 2 == 0 or o.key[0] == o.key[2] == 0)
    }
    plan = tenant_requests(seed, 0)
    for (unit, t, k), digest in prints.items():
        if t % 2 == 0 and (unit, t, 0) in prints and digest != prints[(unit, t, 0)]:
            tally.fail(f"tenant {t} repeat {k} differs from its first campaign")
    for t in range(TENANTS):
        if (0, t, 0) not in prints:
            continue
        request = plan[t][0]
        try:
            reference = run_campaign(
                request.build_machine(), request.build_config(), workers=1
            )
        except Exception as exc:
            tally.fail(f"standalone tenant {t}: {type(exc).__name__}: {exc}")
            continue
        if fingerprint(reference, scratch) != prints[(0, t, 0)]:
            tally.fail(f"tenant {t} first campaign differs from standalone run")


def end_to_end(run: Run) -> tuple[dict, dict]:
    """End-to-end metrics of one untraced run, and the samples behind them.

    Host times are scaled to the reference host speed unit by unit
    (``Run.speed``); the raw medians are kept in the samples.  Throughputs
    and per-campaign walls are medians over the run's units; campaign
    latency percentiles pool every campaign of the run.
    """
    tally = run.tally
    units = [
        (w * f, n, m, w)
        for w, f, n, m in zip(run.walls, run.speed, run.unit_campaigns, run.unit_measurements)
        if math.isfinite(w) and n
    ]
    latencies = [x for x in run.latencies if math.isfinite(x)]
    errors = np.concatenate(tally.rel_errors) if tally.rel_errors else np.zeros(0)
    samples = {
        "campaign_wall_s": summary([w / n for w, n, _, _ in units]),
        "measurements_per_s": summary([m / w for w, _, m, _ in units]),
        "campaigns_per_s": summary([n / w for w, n, _, _ in units]),
    }
    metrics = {name: s["median"] for name, s in samples.items()}
    metrics.update({
        "campaign_latency_p50_s": percentile(latencies, 50),
        "campaign_latency_p75_s": percentile(latencies, 75),
        "latency_rel_error_p50": percentile(errors, 50),
        "latency_rel_error_p90": percentile(errors, 90),
        "pair_ok_frac": (
            tally.pairs_ok / tally.pairs_attempted if tally.pairs_attempted else 0.0
        ),
        "campaign_ok_frac": (
            (tally.attempted - tally.failed) / tally.attempted if tally.attempted else 0.0
        ),
    })
    samples["host_speed"] = summary(run.speed)
    samples["raw_campaign_wall_s"] = summary([raw / n for _, n, _, raw in units])
    samples["raw_measurements_per_s"] = summary([m / raw for _, _, m, raw in units])
    samples["campaign_latency_s"] = dict(
        summary(latencies), highest_supported_percentile=tail_percentile(len(latencies))
    )
    samples["latency_rel_error"] = {"n": int(errors.size)}
    return metrics, samples


# ----------------------------------------------------------------------
# set-up
# ----------------------------------------------------------------------
def set_up(workload: Workload, scratch: Path, ready) -> None:
    """Reach ready-to-submit, call ``ready()``, then tear down."""
    if workload.kind == "campaign":
        machine_mod.make_machine(workload.gpu, seed=0)
        campaign_config(workload)
        ready()
        return

    async def start_service():
        service = CampaignService(
            fleet_size=FLEET_SIZE,
            journal_root=str(scratch / "journal"),
            calibration_cache=str(scratch / "calibration"),
        )
        await service.start()
        ready()
        await service.stop()

    asyncio.run(start_service())
