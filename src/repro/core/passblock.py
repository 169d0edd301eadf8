"""The per-pair measurement loop, run as batched pass blocks.

The paper's Algorithm 1 measures a pair one pass at a time: PTP
handshake, settle, benchmark kernel, frequency change, then the phase-3
evaluation — and only then decides what the next pass looks like.  Almost
all of that decision logic is cheap scalar state, while almost all of the
*work* is array math whose per-pass fixed costs dominate at campaign
scale.

This module runs that loop around **pass blocks**:

1.  *Speculate.*  Up to ``B`` passes are simulated back to back under the
    assumption that every deferred evaluation will succeed with the current
    switch window.  Each pass performs exactly the one-pass-at-a-time
    loop's RNG draws and clock advances (the simulation side is
    untouched); only the pure array analysis — per-iteration boundary
    inversion, device-clock conversion, phase-3 detection and CI
    confirmation — is deferred.  Throttle checks and settle failures
    depend on nothing deferred, so they are handled eagerly at the
    per-pass cadence.  After every pass a
    :class:`~repro.machine.MachineCheckpoint` is appended to the block's
    **ledger**.

2.  *Batch.*  At block end the deferred kernels materialize straight into
    contiguous block buffers and
    :func:`repro.core.phase3.evaluate_switch_block_deferred` evaluates the
    whole block in one array sweep (bit-identical per pass to
    :func:`~repro.core.phase3.evaluate_switch`).

3.  *Resolve.*  The per-pass control flow is replayed over the real
    outcomes, in pass order.  While the speculation assumption holds this
    commits measurements; at the first divergence — a failed evaluation
    that grows the window, an abandon threshold, a mid-block stopping-rule
    hit — the machine is rolled back to the ledger checkpoint taken right
    after the diverging pass, i.e. to exactly the state a one-pass-at-a-
    time loop would be in, and the loop re-plans from there.  A failed
    evaluation that changes *no* simulation state (no window growth, no
    abandon) is not a divergence at all: the speculated suffix remains
    valid and resolution simply keeps walking.

Because every RNG draw happens in pass order and every discarded suffix
is rolled back through the ledger, every block size gives the same
measurements, outlier labels, CSV bytes and virtual wall clock.  Block
size 1 never speculates.  ``tests/test_core_passblock.py`` checks every
size against a one-pass-at-a-time oracle loop kept in the tests.

Tracing
-------
The resolve step emits one ``campaign``/``evaluation`` event per
evaluated pass, in pass order, when the machine's tracer is enabled.  A
machine with an enabled tracer plans blocks of 1, so speculative passes
that are later rolled back never reach its trace.  A disabled tracer
keeps full blocks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.core.context import BenchContext
from repro.core.phase2 import RawSwitchData, run_switch_benchmark
from repro.core.phase3 import (
    block_scratch,
    evaluate_switch,
    evaluate_switch_block_deferred,
)
from repro.core.results import PairResult, SwitchingLatencyMeasurement
from repro.errors import MeasurementError
from repro.gpusim.thermal import ThrottleReasons
from repro.machine import MachineCheckpoint
from repro.stats.rse import RseStoppingRule

__all__ = ["measure_pair_blocked", "plan_block_size"]


def plan_block_size(
    n_measurements: int, rule: RseStoppingRule, cap: int
) -> int:
    """Passes to speculate so a stop check can only land on the last one.

    The stopping rule fires only when the measurement count reaches
    ``max_measurements`` or a multiple of ``check_every`` at or above
    ``min_measurements``; assuming every speculated pass yields a
    measurement, the distance to the nearest such count bounds the block.
    Failed passes only shorten the real distance, which is safe — the
    resolution walk re-checks the rule after every commit and rolls back
    on a genuine mid-block stop (possible only after thermal discards).
    """
    n = n_measurements
    d_max = max(rule.max_measurements - n, 1)
    first_checkable = max(rule.min_measurements, n + 1)
    next_multiple = -(-first_checkable // rule.check_every) * rule.check_every
    d_check = next_multiple - n
    return max(1, min(cap, d_max, d_check))


@dataclass
class _BlockEvent:
    """One speculated step of a block, with its post-state ledger entry."""

    kind: str  # "raw" | "settle-fail" | "throttle-thermal" | "throttle-power"
    raw: RawSwitchData | None
    checkpoint: MachineCheckpoint


def _evaluate_deferred_block(raws, bench, target_stats, cfg):
    """Materialize a block's deferred kernels into contiguous buffers.

    The per-kernel true-time end boundaries are device-clock converted
    directly into one ``(n_pass, n_sm, n_iter)`` matrix (no per-pass
    DeviceTimestamps, no starts matrices — back-to-back iterations make
    them shifted views of the ends), then the whole block is evaluated in
    one sweep.  Per-element arithmetic is identical to the single-pass path's
    ``as_device_view`` + ``evaluate_switch`` chain.
    """
    if not raws:
        return []
    if len(raws) == 1:
        raws[0].materialize(bench.cuda)
        return [evaluate_switch(raws[0], target_stats, cfg)]

    gpu_clock = bench.device.gpu_clock
    deferreds = [raw.pending.handle.deferred for raw in raws]
    n_sm, n_iter = deferreds[0].cycles_shape
    ends = block_scratch("ends", (len(raws), n_sm, n_iter))
    start0_true = np.empty((len(raws), n_sm))
    for b, deferred in enumerate(deferreds):
        gpu_clock.convert_array(deferred.ends_true(), out=ends[b])
        start0_true[b] = deferred.sm_start_times
    start0 = gpu_clock.convert_array(start0_true)
    return evaluate_switch_block_deferred(
        start0, ends, [raw.ts_acc for raw in raws], target_stats, cfg
    )


def measure_pair_blocked(
    bench: BenchContext,
    init_mhz: float,
    target_mhz: float,
    phase1,
    probe,
    block_cap: int,
) -> PairResult:
    """Measure one pair until the RSE stopping rule fires.

    Each round speculates one block of at most ``block_cap`` passes,
    evaluates the block's deferred kernels in one sweep, then resolves:
    the per-pass control flow replays over the real outcomes, and the
    machine is rolled back through the ledger at the first divergence.
    """
    # Imported here: campaign imports this module at load time.
    from repro.clustering.adaptive import adaptive_dbscan
    from repro.core.campaign import _MIN_FOR_OUTLIER_FILTER, _initial_window_iters

    cfg, machine = bench.config, bench.machine
    tracer = machine.tracer if machine.tracer.enabled else None
    if tracer is not None:
        block_cap = 1  # trace only passes that are kept
    kernel = phase1.kernel
    target_stats = phase1.stats_for(target_mhz)
    rule = cfg.stopping_rule()
    pair = PairResult(
        init_mhz=float(init_mhz), target_mhz=float(target_mhz), axis=cfg.axis
    )
    window_iters = _initial_window_iters(
        bench, init_mhz, target_mhz, probe, kernel
    )
    growths = 0
    consecutive_failures = 0
    passes = 0
    done = False
    while not done:
        # 1. Speculate: simulate up to one block of passes, deferring the
        #    evaluation of each.
        block = plan_block_size(len(pair.measurements), rule, block_cap)
        events: list[_BlockEvent] = []
        spec_consecutive = consecutive_failures
        spec_passes = passes
        for _ in range(block):
            try:
                raw = run_switch_benchmark(
                    bench, init_mhz, target_mhz, kernel, window_iters,
                    defer_timestamps=True,
                )
            except MeasurementError:
                spec_consecutive += 1
                events.append(
                    _BlockEvent("settle-fail", None, machine.checkpoint())
                )
                if spec_consecutive >= cfg.max_consecutive_failures:
                    break
                continue
            spec_passes += 1

            # Throttle handling (paper Sec. VI) depends only on the NVML
            # poll taken during the pass — nothing deferred — so it runs
            # eagerly at the exact per-pass cadence.  SW_POWER_CAP is masked
            # on the power-cap axis (it is the measured signal there).
            if spec_passes % cfg.throttle_check_every == 0:
                reasons = raw.throttle_reasons
                if reasons & (
                    ThrottleReasons.SW_POWER_CAP & ~bench.axis.benign_throttle
                ):
                    events.append(
                        _BlockEvent("throttle-power", raw, machine.checkpoint())
                    )
                    break
                if reasons & (
                    ThrottleReasons.SW_THERMAL | ThrottleReasons.HW_THERMAL
                ):
                    bench.host.sleep(cfg.throttle_backoff_s)
                    events.append(
                        _BlockEvent("throttle-thermal", raw, machine.checkpoint())
                    )
                    continue

            spec_consecutive = 0  # speculation assumes the pass evaluates ok
            events.append(_BlockEvent("raw", raw, machine.checkpoint()))

        # 2. Batch: evaluate every speculated measurement pass in one sweep.
        evaluations = iter(
            _evaluate_deferred_block(
                [e.raw for e in events if e.kind == "raw"],
                bench, target_stats, cfg,
            )
        )

        # 3. Resolve: replay the per-pass control flow over real outcomes.
        for index, event in enumerate(events):
            is_last = index == len(events) - 1

            if event.kind == "settle-fail":
                pair.n_failed_attempts += 1
                consecutive_failures += 1
                if consecutive_failures >= cfg.max_consecutive_failures:
                    pair.skipped = True
                    pair.skip_reason = "initial-frequency-never-settled"
                    if not is_last:
                        machine.restore(event.checkpoint)
                    done = True
                    break
                continue

            if event.kind == "throttle-power":
                # Power events always terminate speculation, so the machine
                # already sits at this event's checkpoint.
                passes += 1
                pair.skipped = True
                pair.skip_reason = "power-throttled"
                done = True
                break

            if event.kind == "throttle-thermal":
                passes += 1
                drop = min(cfg.throttle_discard_count, len(pair.measurements))
                if drop:
                    del pair.measurements[-drop:]
                pair.n_throttle_discards += drop
                continue

            # kind == "raw"
            passes += 1
            ev = next(evaluations)
            if tracer is not None:
                tracer.emit(
                    machine.clock.now, "campaign", "evaluation",
                    pair=f"{init_mhz:g}->{target_mhz:g}",
                    outcome=ev.reason,
                    latency_ms=(
                        round(ev.latency_s * 1e3, 3) if ev.ok else None
                    ),
                )
            if ev.ok:
                consecutive_failures = 0
                raw = event.raw
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
                    if not is_last:
                        machine.restore(event.checkpoint)
                    done = True
                    break
                continue

            # Failed evaluation: failure bookkeeping, then decide whether the
            # speculated suffix is still valid.
            pair.n_failed_attempts += 1
            consecutive_failures += 1
            if ev.window_too_short and growths < cfg.max_window_retries:
                window_iters = int(
                    math.ceil(window_iters * cfg.window_growth_factor)
                )
                growths += 1
                pair.n_window_growths += 1
                consecutive_failures = 0
                # The suffix ran with the stale window — divergence: roll
                # back and re-plan with the grown window.
                if not is_last:
                    machine.restore(event.checkpoint)
                break
            if consecutive_failures >= cfg.max_consecutive_failures:
                if not pair.measurements:
                    pair.skipped = True
                    pair.skip_reason = "no-viable-measurements"
                if not is_last:
                    machine.restore(event.checkpoint)
                done = True
                break
            # Plain failure: consumes no draws and no time, so the
            # speculated suffix is exactly what one pass at a time would
            # have run next — keep walking, no rollback.

    # Algorithm-3 outlier labelling.
    if len(pair.measurements) >= _MIN_FOR_OUTLIER_FILTER:
        pair.outliers = adaptive_dbscan(
            [m.latency_s for m in pair.measurements], cfg.outlier_config
        )
    return pair
