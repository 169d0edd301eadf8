"""Reference implementations the tests check the product code against.

Each function here is a slow, literal formulation of something ``src/``
computes faster, kept only as an oracle:

* :func:`measure_pair_reference` — the per-pair measurement loop run one
  pass at a time (simulate, evaluate, decide), emitting the per-pass
  ``campaign``/``evaluation`` trace event.  :func:`reference_loop` makes a
  whole campaign run it in place of the pass-block loop.
* :func:`evaluate_switch_reference` — phase-3 confirmation with one
  ``SampleStats`` and one Welch CI per candidate SM.
* :func:`integrate_iterations_reference` — SM iteration boundaries by
  explicit cycle accounting, one iteration at a time.
"""

from __future__ import annotations

import math
from unittest import mock

import numpy as np

from repro.clustering.adaptive import adaptive_dbscan
from repro.core import passblock
from repro.core.campaign import (
    _MIN_FOR_OUTLIER_FILTER,
    ProbeInfo,
    _initial_window_iters,
)
from repro.core.config import LatestConfig
from repro.core.context import BenchContext
from repro.core.phase1 import Phase1Result
from repro.core.phase2 import RawSwitchData, run_switch_benchmark
from repro.core.phase3 import (
    SwitchEvaluation,
    _detect,
    _finish,
    _status,
    _tail_moments,
    _tail_sums,
    evaluate_switch,
)
from repro.core.results import PairResult, SwitchingLatencyMeasurement
from repro.errors import MeasurementError
from repro.gpusim.sm import KernelTimestamps
from repro.gpusim.thermal import ThrottleReasons
from repro.gpusim.trajectory import FrequencyTrajectory
from repro.stats.descriptive import SampleStats
from repro.stats.intervals import difference_ci


def measure_pair_reference(
    bench: BenchContext,
    init_mhz: float,
    target_mhz: float,
    phase1: Phase1Result,
    probe: ProbeInfo,
) -> PairResult:
    """The scalar reference loop: one pass simulated, evaluated, decided.

    The semantic definition of the per-pair measurement procedure (the
    paper's Algorithm 1 loop, kept verbatim); ``tests/test_core_passblock.py``
    asserts the pass-block loop reproduces it bit for bit.
    """
    cfg = bench.config
    machine = bench.machine
    kernel = phase1.kernel
    target_stats = phase1.stats_for(target_mhz)
    rule = cfg.stopping_rule()

    pair = PairResult(
        init_mhz=float(init_mhz), target_mhz=float(target_mhz), axis=cfg.axis
    )
    window_iters = _initial_window_iters(bench, init_mhz, target_mhz, probe, kernel)
    growths = 0
    consecutive_failures = 0
    passes = 0

    while True:
        try:
            raw = run_switch_benchmark(
                bench, init_mhz, target_mhz, kernel, window_iters
            )
        except MeasurementError:
            pair.n_failed_attempts += 1
            consecutive_failures += 1
            if consecutive_failures >= cfg.max_consecutive_failures:
                pair.skipped = True
                pair.skip_reason = "initial-frequency-never-settled"
                break
            continue
        passes += 1

        # Throttle handling (paper Sec. VI): every five passes.  On the
        # power-cap axis SW_POWER_CAP is the measured signal itself
        # (axis.benign_throttle), not a reason to abandon the pair.
        if passes % cfg.throttle_check_every == 0:
            reasons = raw.throttle_reasons
            if reasons & (
                ThrottleReasons.SW_POWER_CAP & ~bench.axis.benign_throttle
            ):
                pair.skipped = True
                pair.skip_reason = "power-throttled"
                break
            if reasons & (ThrottleReasons.SW_THERMAL | ThrottleReasons.HW_THERMAL):
                drop = min(cfg.throttle_discard_count, len(pair.measurements))
                if drop:
                    del pair.measurements[-drop:]
                pair.n_throttle_discards += drop
                bench.host.sleep(cfg.throttle_backoff_s)
                continue

        ev = evaluate_switch(raw, target_stats, cfg)
        machine.tracer.emit(
            machine.clock.now, "campaign", "evaluation",
            pair=f"{init_mhz:g}->{target_mhz:g}",
            outcome=ev.reason,
            latency_ms=(
                round(ev.latency_s * 1e3, 3) if ev.ok else None
            ),
        )
        if ev.ok:
            consecutive_failures = 0
            pair.measurements.append(
                SwitchingLatencyMeasurement(
                    latency_s=float(ev.latency_s),
                    ts_acc=raw.ts_acc,
                    te_acc=float(ev.te_acc),
                    n_valid_sm=ev.n_valid_sm,
                    window_iterations=window_iters,
                    ground_truth_s=raw.ground_truth_latency_s,
                    ground_truth_outlier=raw.ground_truth_outlier,
                )
            )
            if rule.should_stop([m.latency_s for m in pair.measurements]):
                break
            continue

        # Failed evaluation: grow the window when the latency escaped
        # it ("repeated with a ten-times longer workload", Sec. V);
        # otherwise simply repeat phases two and three.
        pair.n_failed_attempts += 1
        consecutive_failures += 1
        if ev.window_too_short and growths < cfg.max_window_retries:
            window_iters = int(
                math.ceil(window_iters * cfg.window_growth_factor)
            )
            growths += 1
            pair.n_window_growths += 1
            consecutive_failures = 0
        elif consecutive_failures >= cfg.max_consecutive_failures:
            if not pair.measurements:
                pair.skipped = True
                pair.skip_reason = "no-viable-measurements"
            break

    if len(pair.measurements) >= _MIN_FOR_OUTLIER_FILTER:
        pair.outliers = adaptive_dbscan(
            [m.latency_s for m in pair.measurements], cfg.outlier_config
        )
    return pair


def _suffix_stats(diffs: np.ndarray, cut: np.ndarray):
    """Per-row mean/std/count of ``diffs[i, cut[i]:]`` over every row."""
    n_iter = diffs.shape[1]
    cut = np.minimum(cut, n_iter)
    n_tail = n_iter - cut
    tail_sum, tail_sq = _tail_sums(diffs, cut, np.arange(diffs.shape[0]))
    mean, std = _tail_moments(tail_sum, tail_sq, n_tail)
    return mean, std, n_tail


def evaluate_switch_reference(
    raw: RawSwitchData,
    target_stats: SampleStats,
    cfg: LatestConfig,
) -> SwitchEvaluation:
    """Scalar reference: one SampleStats + Welch CI per candidate SM.

    This is the original formulation of the confirmation step, kept so
    the equivalence tests can assert that the vectorized path produces
    identical statuses, latencies and reasons.
    """
    diffs, ends, ts, has_post, detected, first = _detect(raw, target_stats, cfg)
    n_sm = diffs.shape[0]

    tail_mean, tail_std, n_tail = _suffix_stats(diffs, first + 1)

    short = detected & (n_tail < cfg.min_confirm_tail)
    status = _status(has_post, detected, short)

    confirm_rows = np.flatnonzero(detected & ~short)
    valid = np.zeros(n_sm, dtype=bool)
    tol = cfg.tolerance_rel * target_stats.mean
    for i in confirm_rows:
        tail = SampleStats(
            n=int(n_tail[i]),
            mean=float(tail_mean[i]),
            std=float(tail_std[i]),
            minimum=0.0,
            maximum=0.0,
        )
        lb, hb = difference_ci(tail, target_stats, cfg.confidence)
        if (lb < 0.0 < hb) or abs(tail.mean - target_stats.mean) < tol:
            valid[i] = True

    return _finish(
        ends[None], [ts], status[None], has_post[None], detected[None],
        short[None], first[None], valid[None],
    )[0]


def integrate_iterations_reference(
    trajectory: FrequencyTrajectory,
    sm_start_times: np.ndarray,
    cycles: np.ndarray,
) -> KernelTimestamps:
    """Scalar reference implementation (one iteration at a time).

    Advances each iteration through trajectory segments by explicit cycle
    accounting.  Used by the property-based tests to validate
    :func:`integrate_iterations`; O(n_sm × n_iter × n_seg), so keep inputs
    small.
    """
    sm_start_times = np.asarray(sm_start_times, dtype=np.float64)
    cycles = np.asarray(cycles, dtype=np.float64)
    n_sm, n_iter = cycles.shape
    segs = list(trajectory.iter_from(float(sm_start_times.min())))
    starts = np.empty((n_sm, n_iter))
    ends = np.empty((n_sm, n_iter))
    for i in range(n_sm):
        t = float(sm_start_times[i])
        for k in range(n_iter):
            starts[i, k] = t
            remaining = float(cycles[i, k])
            while remaining > 0.0:
                seg = next(s for s in segs if s.t_end > t)
                f = seg.freq_hz
                capacity = (seg.t_end - t) * f
                if remaining <= capacity:
                    t += remaining / f
                    remaining = 0.0
                else:
                    remaining -= capacity
                    t = seg.t_end
            ends[i, k] = t
    return KernelTimestamps(starts_true=starts, ends_true=ends)


def _reference_pair(bench, init_mhz, target_mhz, phase1, probe, block_cap):
    """``measure_pair_blocked``'s signature over the reference loop."""
    return measure_pair_reference(bench, init_mhz, target_mhz, phase1, probe)


def reference_loop():
    """Patch context: every pair measured inside runs the reference loop.

    ``repro.core.campaign.measure_pair`` looks the pass-block loop up as
    ``repro.core.passblock.measure_pair_blocked`` at call time, so
    swapping that one attribute moves serial, in-process engine and
    service campaigns alike onto :func:`measure_pair_reference`.
    """
    return mock.patch.object(
        passblock, "measure_pair_blocked", _reference_pair
    )
