"""The LATEST per-pair measurement loop and its probe stage (paper Sec. VI).

A campaign runs the three phases over every requested frequency pair of
its swept axis (:mod:`repro.core.axis` — SM clocks by default, memory
clocks with ``config.axis="memory"``):

* phase 1 once per facet (with workload growth for indistinguishable
  pairs),
* a probe stage sizing the switch window ("tenfold the longest switching
  latency of these few tested pairs", Sec. V) — :func:`probe_windows`,
* per pair: repeat phases 2+3 until the relative standard error of the
  collected latencies drops below the threshold (checked every 25 passes),
  with throttle checks every five passes — thermal throttling discards the
  newest five measurements and backs off ten seconds, power throttling
  skips the pair entirely — :func:`measure_pair`,
* adaptive DBSCAN outlier labelling per pair (Algorithm 3),
* CSV output per pair under the standardized naming convention.

The campaign driver — calibration, skip planning, the event stream,
journaling and CSV output — is :class:`repro.exec.engine.CampaignExecutor`;
:func:`run_campaign` is its front door.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.core import passblock
from repro.core.config import LatestConfig
from repro.core.context import BenchContext
from repro.core.phase1 import Phase1Result
from repro.core.phase2 import run_switch_benchmark
from repro.core.phase3 import evaluate_switch
from repro.core.results import CampaignResult, PairResult
from repro.errors import MeasurementError
from repro.machine import Machine

__all__ = [
    "ProbeInfo",
    "measure_pair",
    "probe_windows",
    "run_campaign",
]

#: minimum number of measurements before outlier filtering is meaningful
_MIN_FOR_OUTLIER_FILTER = 12


@dataclass(frozen=True)
class ProbeInfo:
    """Window-sizing information from the probe stage."""

    max_latency_s: float
    median_latency_s: float
    pair_latencies: tuple[tuple[float, float, float], ...]  # (init, tgt, lat)


def _probe_pairs(
    config: LatestConfig, phase1: Phase1Result
) -> list[tuple[float, float]]:
    """Pick representative pairs spanning small/medium/high levels."""
    valid = phase1.valid_pairs
    if not valid:  # calibration guards this; direct callers get the error
        raise MeasurementError(
            "no statistically distinguishable frequency pairs"
        )
    freqs = sorted(config.frequencies)
    lo, hi = freqs[0], freqs[-1]
    mid = freqs[len(freqs) // 2]
    preferred = [(lo, hi), (hi, lo), (mid, hi), (hi, mid), (lo, mid)]
    chosen = [p for p in preferred if p in set(valid)]
    for p in valid:
        if len(chosen) >= config.probe_pair_count:
            break
        if p not in chosen:
            chosen.append(p)
    return chosen[: config.probe_pair_count]


def probe_windows(bench: BenchContext, phase1: Phase1Result) -> ProbeInfo:
    """Estimate the switch-window size from a few probe measurements.

    The probe stage of calibration: a handful of representative pairs,
    each measured once with a growing window until phase 3 accepts it.
    """
    cfg = bench.config
    kernel = phase1.kernel
    results: list[tuple[float, float, float]] = []
    for init, target in _probe_pairs(cfg, phase1):
        window_s = cfg.probe_window_s
        latency = None
        for _ in range(cfg.max_window_retries + 1):
            iters = _iters_for_window(bench, window_s, init, target, kernel)
            try:
                raw = run_switch_benchmark(bench, init, target, kernel, iters)
            except MeasurementError:
                continue
            ev = evaluate_switch(raw, phase1.stats_for(target), cfg)
            if ev.ok:
                latency = ev.latency_s
                break
            if ev.window_too_short:
                window_s *= cfg.window_growth_factor
        if latency is not None:
            results.append((init, target, latency))
    if not results:
        raise MeasurementError("all probe measurements failed")
    lats = np.asarray([r[2] for r in results])
    return ProbeInfo(
        max_latency_s=float(lats.max()),
        median_latency_s=float(np.median(lats)),
        pair_latencies=tuple(results),
    )


def _iters_for_window(
    bench: BenchContext, window_s: float, init: float, target: float, kernel
) -> int:
    """Iterations needed to keep measuring for ``window_s``.

    Sized with the *shortest* iteration duration of the pair (highest
    frequency — the axis contract guarantees duration is decreasing in
    the swept clock) so the window never undershoots in time.
    """
    iter_s = bench.axis.iteration_duration_s(bench, kernel, max(init, target))
    return max(50, int(math.ceil(window_s / iter_s)))


def _initial_window_iters(
    bench: BenchContext,
    init_mhz: float,
    target_mhz: float,
    probe: ProbeInfo,
    kernel,
) -> int:
    cfg = bench.config
    base = (
        probe.max_latency_s
        if cfg.window_policy == "probe-max"
        else probe.median_latency_s
    )
    window_s = max(cfg.switch_window_factor * base, 2e-3)
    return _iters_for_window(bench, window_s, init_mhz, target_mhz, kernel)


def measure_pair(
    bench: BenchContext,
    init_mhz: float,
    target_mhz: float,
    phase1: Phase1Result,
    probe: ProbeInfo,
) -> PairResult:
    """Measure one frequency pair until the RSE stopping rule fires.

    Runs on whatever machine ``bench`` wraps: the campaign machine itself
    on the shared timeline, a per-pair replica machine in engine mode.
    The loop itself is the pass-block loop
    :func:`repro.core.passblock.measure_pair_blocked`, looked up at call
    time, with ``config.pass_block_size`` as its block cap.
    """
    return passblock.measure_pair_blocked(
        bench, init_mhz, target_mhz, phase1, probe,
        bench.config.pass_block_size,
    )


def run_campaign(
    machine: Machine,
    config: LatestConfig,
    workers: int | None = None,
    journal: "str | None" = None,
    resume: bool = False,
    sinks=(),
) -> CampaignResult:
    """Build and run a campaign through the execution engine.

    ``workers=None`` (the default) runs the *shared timeline*: every
    facet is calibrated and every pair measured on the caller's machine,
    one facet after the other, so pairs share one clock and RNG stream.
    Any integer ``workers >= 1`` measures pairs on per-pair replica
    machines with deterministic seed streams: the result is identical for
    every worker count (1, 4, ...), but differs from the shared timeline
    because pairs no longer share one clock/RNG stream.  Either way the
    per-pair inner loop is the pass-block loop, whose results are the
    same for every ``config.pass_block_size``, and
    :class:`~repro.exec.engine.CampaignExecutor` drives the campaign.

    With ``config.memory_frequencies`` set, both modes sweep the full
    core×memory grid: the SM pair grid is re-characterized and measured
    once per locked memory clock.

    ``journal`` names a directory for a durable
    :class:`~repro.core.journal.CampaignJournal`; every completed pair is
    recorded as it lands and SIGINT/SIGTERM become a graceful stop.
    ``resume=True`` continues an interrupted *engine-mode* campaign
    bit-identically.  A shared-timeline journal is a durable record but
    cannot be resumed: pair *k*'s draws depend on the machine state pair
    *k-1* left behind, so ``resume``, ``calibration_cache`` and
    ``inject_faults`` (whose retries must replay a pair bit-identically)
    raise :class:`~repro.errors.ConfigError` with ``workers=None``.

    ``sinks`` attaches extra consumers to the campaign event stream
    (:mod:`repro.core.stream`) in either mode — progress reporting,
    incremental CSV output, service feeds.
    """
    from repro.exec.engine import run_campaign_parallel

    return run_campaign_parallel(
        machine, config, workers=workers, journal=journal, resume=resume,
        sinks=sinks,
    )
