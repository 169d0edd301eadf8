"""The LATEST campaign loop (paper Sec. VI).

Orchestrates the three phases over every requested frequency pair of the
campaign's swept axis (:mod:`repro.core.axis` — SM clocks by default,
memory clocks with ``config.axis="memory"``):

* phase 1 once per campaign (with workload growth for indistinguishable
  pairs),
* a probe stage sizing the switch window ("tenfold the longest switching
  latency of these few tested pairs", Sec. V),
* per pair: repeat phases 2+3 until the relative standard error of the
  collected latencies drops below the threshold (checked every 25 passes),
  with throttle checks every five passes — thermal throttling discards the
  newest five measurements and backs off ten seconds, power throttling
  skips the pair entirely,
* adaptive DBSCAN outlier labelling per pair (Algorithm 3),
* CSV output per pair under the standardized naming convention.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.core import passblock
from repro.core.axis import SM_CORE
from repro.core.config import LatestConfig
from repro.core.context import BenchContext
from repro.core.csvio import write_campaign_csvs
from repro.core.phase1 import Phase1Result, run_phase1
from repro.core.phase2 import run_switch_benchmark
from repro.core.phase3 import evaluate_switch
from repro.core.results import CampaignResult, PairResult, ResultAccumulator
from repro.core.stream import (
    CampaignFinished,
    CampaignStarted,
    FacetPrepared,
    PairMeasured,
    PairSkipped,
    StreamDispatcher,
)
from repro.errors import CampaignInterrupted, ConfigError, MeasurementError
from repro.machine import Machine

__all__ = [
    "ProbeInfo",
    "LatestBenchmark",
    "measure_pair",
    "run_campaign",
]

#: minimum number of measurements before outlier filtering is meaningful
_MIN_FOR_OUTLIER_FILTER = 12

#: skip reason recorded when a facet's memory P-state cannot be reached
#: (single-sourced from the axis registry: the memory clock is the SM
#: axis's facet)
MEMORY_NEVER_SETTLED = SM_CORE.facet_fail_reason


def facet_skip_reason(
    phase1: "Phase1Result | None",
    sm_key: tuple[float, float],
    valid: set,
    facet_fail_reason: str = MEMORY_NEVER_SETTLED,
) -> str | None:
    """Why a grid point cannot be measured at its facet (None = measurable).

    The single source of truth for skip semantics shared by the serial
    loop and the execution engine.  ``phase1=None`` means the facet's
    clock never settled — the locked memory clock of a grid campaign, or
    the locked SM clock of a memory-axis campaign, named by
    ``facet_fail_reason``; ``valid`` is the caller's precomputed
    ``set(phase1.valid_pairs)`` so dense grids stay O(P).
    """
    if phase1 is None:
        return facet_fail_reason
    if sm_key in valid:
        return None
    return (
        phase1.unreachable.get(sm_key[0])
        or phase1.unreachable.get(sm_key[1])
        or "statistically-indistinguishable"
    )


@dataclass(frozen=True)
class ProbeInfo:
    """Window-sizing information from the probe stage."""

    max_latency_s: float
    median_latency_s: float
    pair_latencies: tuple[tuple[float, float, float], ...]  # (init, tgt, lat)


class LatestBenchmark:
    """A configured switching-latency campaign bound to one machine."""

    def __init__(self, machine: Machine, config: LatestConfig) -> None:
        self.bench = BenchContext(machine, config)
        self.config = config
        self.machine = machine

    # ------------------------------------------------------------------
    def run(self, journal=None, guard=None, sinks=()) -> CampaignResult:
        """Execute the full campaign and (optionally) write CSV output.

        Legacy campaigns (``memory_frequencies`` unset) run exactly the
        fixed-memory loop — one phase 1, one probe stage, one pair sweep,
        with the memory domain never touched.  Core×memory campaigns
        repeat that loop once per memory clock: lock+settle the memory
        P-state, re-characterize (iteration times respond to the memory
        clock), then measure the full SM pair grid at that clock.
        Memory- and power-axis campaigns run the single-facet loop with
        the roles reversed: the SM clock is locked once
        (``prepare_facet``) and the phases sweep the axis's pairs.
        Multi-facet sweeps (``locked_sm_mhz`` as a tuple) repeat that loop
        once per locked SM clock — the transpose of the core×memory grid,
        through the same per-facet machinery.

        ``journal`` (a :class:`~repro.core.journal.CampaignJournal`)
        records each measured pair as it lands — a durable partial record
        under the engine's flat grid indexing, though a *serial* journal
        cannot be resumed bit-identically (pairs share one RNG/clock
        timeline; see the journal module docs).  ``guard`` (a
        :class:`~repro.core.journal.ShutdownGuard`) turns SIGINT/SIGTERM
        into a clean stop between pairs: the journal is already flushed
        per append, and :class:`~repro.errors.CampaignInterrupted` is
        raised instead of losing the run to a KeyboardInterrupt mid-pass.

        ``sinks`` are extra :class:`~repro.core.stream.CampaignSink`
        consumers attached to the campaign event stream
        (:mod:`repro.core.stream`); the serial loop emits every event in
        flat grid order.  The returned :class:`CampaignResult` is itself
        accumulated from the stream
        (:class:`~repro.core.results.ResultAccumulator`) — there is no
        separate batch result path.
        """
        from repro.core.journal import JournalSink

        t_begin = self.machine.clock.now
        axis = self.bench.axis
        facet_plan = self.config.facet_plan()
        grid = self.config.memory_frequencies is not None
        sm_facets = self.config.locked_sm_plan()
        n_pairs = len(self.config.pairs())
        measured = 0
        accumulator = ResultAccumulator()
        dispatch = StreamDispatcher(
            accumulator,
            JournalSink(journal) if journal is not None else None,
            *sinks,
        )
        dispatch.emit(
            CampaignStarted(
                gpu_name=self.bench.device.spec.name,
                architecture=self.bench.device.spec.architecture,
                hostname=self.machine.hostname,
                device_index=self.config.device_index,
                frequencies=self.config.frequencies,
                axis=axis.name,
                facet_plan=facet_plan,
                n_pairs=n_pairs,
                memory_frequencies=self.config.memory_frequencies,
                locked_sm_frequencies=sm_facets,
                mode="serial",
            )
        )
        for facet_index, facet in enumerate(facet_plan):
            if not self.bench.prepare_facet_clock(facet):
                phase1 = None
                probe = None
            else:
                phase1 = run_phase1(self.bench)
                # Power caps or too-coarse workloads can leave no
                # distinguishable pair at all; the campaign then reports
                # every pair as skipped rather than failing (the tool's
                # CSV output stays consistent).
                probe = (
                    self._probe_windows(phase1) if phase1.valid_pairs else None
                )
            dispatch.emit(
                FacetPrepared(
                    facet_index=facet_index,
                    facet=facet,
                    prepared=phase1 is not None,
                    phase1=phase1,
                    probe=probe,
                )
            )

            valid = set(phase1.valid_pairs) if phase1 is not None else set()
            for pair_index, (init, target) in enumerate(self.config.pairs()):
                sm_key = (float(init), float(target))
                index = facet_index * n_pairs + pair_index
                reason = facet_skip_reason(
                    phase1, sm_key, valid, axis.facet_fail_reason
                )
                if reason is not None:
                    dispatch.emit(
                        PairSkipped(
                            index=index,
                            pair=PairResult(
                                init_mhz=sm_key[0],
                                target_mhz=sm_key[1],
                                skipped=True,
                                skip_reason=reason,
                                memory_mhz=facet if grid else None,
                                locked_sm_mhz=(
                                    None
                                    if grid or facet is None
                                    else float(facet)
                                ),
                                axis=axis.name,
                            ),
                        )
                    )
                    continue
                if guard is not None and guard.requested:
                    dispatch.interrupt()
                    raise CampaignInterrupted(
                        f"serial campaign interrupted after {measured} "
                        "measured pairs"
                        + (
                            "; the journal holds every finished pair (a "
                            "durable record — serial campaigns cannot be "
                            "resumed, see the journal docs)"
                            if journal is not None
                            else ""
                        ),
                        journal_dir=(
                            None
                            if journal is None
                            else str(journal.directory)
                        ),
                    )
                t_pair = self.machine.clock.now
                pair = self.measure_pair(sm_key[0], sm_key[1], phase1, probe)
                pair.memory_mhz = facet if grid else None
                if not grid and facet is not None:
                    pair.locked_sm_mhz = float(facet)
                measured += 1
                # The flat facet-major index the engine also uses, so the
                # event (and any journaled record of it) identifies the
                # grid point unambiguously across execution tiers.
                dispatch.emit(
                    PairMeasured(
                        index=index,
                        pair=pair,
                        elapsed_virtual_s=self.machine.clock.now - t_pair,
                    )
                )

        dispatch.emit(
            CampaignFinished(
                wall_virtual_s=self.machine.clock.now - t_begin,
                locked_sm_mhz=(
                    None
                    if sm_facets is not None
                    else axis.locked_complement_mhz(self.bench)
                ),
            )
        )
        result = accumulator.result()
        if self.config.output_dir is not None:
            write_campaign_csvs(self.config.output_dir, result)
        return result

    # ------------------------------------------------------------------
    # probe stage
    # ------------------------------------------------------------------
    def _probe_pairs(self, phase1: Phase1Result) -> list[tuple[float, float]]:
        """Pick representative pairs spanning small/medium/high levels."""
        valid = phase1.valid_pairs
        if not valid:  # guarded by run(); direct callers get the error
            raise MeasurementError(
                "no statistically distinguishable frequency pairs"
            )
        freqs = sorted(self.config.frequencies)
        lo, hi = freqs[0], freqs[-1]
        mid = freqs[len(freqs) // 2]
        preferred = [(lo, hi), (hi, lo), (mid, hi), (hi, mid), (lo, mid)]
        chosen = [p for p in preferred if p in set(valid)]
        for p in valid:
            if len(chosen) >= self.config.probe_pair_count:
                break
            if p not in chosen:
                chosen.append(p)
        return chosen[: self.config.probe_pair_count]

    def _probe_windows(self, phase1: Phase1Result) -> ProbeInfo:
        """Estimate the switch-window size from a few probe measurements."""
        cfg = self.config
        kernel = phase1.kernel
        results: list[tuple[float, float, float]] = []
        for init, target in self._probe_pairs(phase1):
            window_s = cfg.probe_window_s
            latency = None
            for _ in range(cfg.max_window_retries + 1):
                iters = _iters_for_window(self.bench, window_s, init, target, kernel)
                try:
                    raw = run_switch_benchmark(self.bench, init, target, kernel, iters)
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

    # ------------------------------------------------------------------
    # per-pair measurement loop
    # ------------------------------------------------------------------
    def measure_pair(
        self,
        init_mhz: float,
        target_mhz: float,
        phase1: Phase1Result,
        probe: ProbeInfo,
    ) -> PairResult:
        return measure_pair(self.bench, init_mhz, target_mhz, phase1, probe)


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

    Standalone so the execution engine can run it against a per-pair
    replica machine in a worker process; :class:`LatestBenchmark` delegates
    here for the serial path.  The loop itself is the pass-block loop
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
    """Build and run a campaign.

    ``workers=None`` (the default) runs the strictly-serial loop on the
    caller's machine: one shared timeline and RNG stream across pairs.
    Any integer ``workers >= 1`` routes through the execution engine
    (:mod:`repro.exec`), which measures pairs on per-pair replica machines
    with deterministic seed streams: the result is identical for every
    worker count (1, 4, ...), but differs from the serial timeline because
    pairs no longer share one clock/RNG stream.  Either way the per-pair
    inner loop is the pass-block loop, whose results are the same for
    every ``config.pass_block_size``.

    With ``config.memory_frequencies`` set, both paths sweep the full
    core×memory grid: the SM pair grid is re-characterized and measured
    once per locked memory clock (see ``LatestBenchmark.run``).

    ``journal`` names a directory for a durable
    :class:`~repro.core.journal.CampaignJournal`; every completed pair is
    recorded as it lands and SIGINT/SIGTERM become a graceful, resumable
    stop.  ``resume=True`` continues an interrupted *engine-mode*
    campaign bit-identically — the serial loop's pairs share one
    RNG/clock timeline, so a serial journal is a durable record but
    cannot be resumed (a clear error says so).

    ``sinks`` attaches extra consumers to the campaign event stream
    (:mod:`repro.core.stream`) on either path — progress reporting,
    incremental CSV output, service feeds.
    """
    if workers is None:
        if resume:
            raise ConfigError(
                "resume requires the execution engine (workers >= 1): "
                "serial campaigns share one RNG/clock timeline across "
                "pairs, so journaled pairs cannot be skipped bit-"
                "identically"
            )
        if config.calibration_cache is not None:
            raise ConfigError(
                "calibration_cache requires the execution engine "
                "(workers >= 1): the serial loop shares one RNG/clock "
                "timeline across calibration and measurement, so a "
                "skipped calibration cannot be replayed bit-identically"
            )
        if journal is None:
            return LatestBenchmark(machine, config).run(sinks=sinks)
        from repro.core.journal import (
            CampaignJournal,
            ShutdownGuard,
            campaign_fingerprint,
            campaign_synopsis,
        )

        fingerprint = campaign_fingerprint(config, machine.blueprint)
        with CampaignJournal.open(
            journal,
            fingerprint,
            mode="serial",
            synopsis=campaign_synopsis(config, machine.blueprint),
        ) as journal_obj, ShutdownGuard() as guard:
            return LatestBenchmark(machine, config).run(
                journal=journal_obj, guard=guard, sinks=sinks
            )
    from repro.exec.engine import run_campaign_parallel

    return run_campaign_parallel(
        machine, config, workers=workers, journal=journal, resume=resume,
        sinks=sinks,
    )
