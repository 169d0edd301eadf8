"""Profile post-processing: the campaign stage breakdown.

``latest-bench --profile OUT.pstats`` dumps a raw cProfile capture; this
module condenses it into the handful of numbers a perf PR actually needs
— where campaign time went, by pipeline stage — so regressions are
attributable without opening the dump in a viewer.

Stages are anchored on well-known functions (cumulative time, matched on
``(file basename, function name)``).  The pass-loop stages count only the
calls the pass-block loop makes (``measure_pair_blocked`` for
``simulate``, its ``_evaluate_deferred_block`` for ``materialize`` and
``evaluate``), so the probe's passes stay out of them and together they
split ``batch-step``:

===========  =========================================================
stage        anchor(s)
===========  =========================================================
calibration  ``calibrate_facet`` + ``_calibrate_on_driver``
             (whole per-facet calibrations: facet clock, phase 1,
             probe — the stage the calibration cache eliminates)
phase1       ``run_phase1`` (characterization sweeps, per facet)
probe        ``_probe_windows`` (window-sizing probe passes)
batch-step   ``measure_pair_blocked`` (single-pair blocked loops)
simulate     ``run_switch_benchmark`` (phase-2 passes: PTP sync, settle,
             switch kernel, cycle draws and completion times)
materialize  ``PendingIntegration.ends_true`` (full per-iteration
             boundary inversion of a block's timed kernels)
evaluate     ``evaluate_switch_block_deferred`` + ``evaluate_switch``
             (phase-3 detection, confirmation and per-pass outcome)
stream       ``StreamDispatcher.emit`` + ``ResultAccumulator.on_event``
             (campaign event dispatch + index-keyed result assembly)
===========  =========================================================

Stages may nest — engine campaigns run ``phase1`` and ``probe`` inside
``calibration``, and the pass-loop stages run inside ``batch-step`` — so
the rows are overlapping attributions against total time, not a
partition of it.
"""

from __future__ import annotations

import os
import pstats

__all__ = ["STAGE_ANCHORS", "render_stage_breakdown", "stage_times"]

#: stage name -> anchors, cumtimes summed.  An anchor is ``(file
#: basename, function name)``, optionally followed by the caller's
#: ``(file basename, function name)`` to count only calls made from there.
STAGE_ANCHORS: dict[str, tuple[tuple[str, ...], ...]] = {
    "calibration": (
        ("worker.py", "calibrate_facet"),
        ("engine.py", "_calibrate_on_driver"),
    ),
    "phase1": (("phase1.py", "run_phase1"),),
    "probe": (("campaign.py", "_probe_windows"),),
    "batch-step": (("passblock.py", "measure_pair_blocked"),),
    "simulate": (
        ("phase2.py", "run_switch_benchmark", "passblock.py", "measure_pair_blocked"),
    ),
    "materialize": (
        ("sm.py", "ends_true", "passblock.py", "_evaluate_deferred_block"),
    ),
    "evaluate": (
        (
            "phase3.py", "evaluate_switch_block_deferred",
            "passblock.py", "_evaluate_deferred_block",
        ),
        ("phase3.py", "evaluate_switch", "passblock.py", "_evaluate_deferred_block"),
    ),
    "stream": (
        ("stream.py", "emit"),
        ("results.py", "on_event"),
    ),
}


def stage_times(stats_path: str) -> tuple[dict[str, float], float]:
    """Per-stage cumulative seconds and the capture's total time."""
    stats = pstats.Stats(stats_path)
    by_stage = {name: 0.0 for name in STAGE_ANCHORS}
    for (filename, _line, funcname), entry in stats.stats.items():
        key = (os.path.basename(filename), funcname)
        for stage, anchors in STAGE_ANCHORS.items():
            for anchor in anchors:
                if anchor[:2] != key:
                    continue
                if len(anchor) == 2:
                    by_stage[stage] += entry[3]
                    continue
                # Per-caller cumulative time of the calls from anchor[2:].
                for (c_file, _c_line, c_func), edge in entry[4].items():
                    if (os.path.basename(c_file), c_func) == anchor[2:]:
                        by_stage[stage] += edge[3]
    return by_stage, stats.total_tt


def render_stage_breakdown(
    stats_path: str, cache_stats: "dict | None" = None
) -> str:
    """The stderr summary printed after ``--profile`` dumps its stats.

    ``cache_stats`` (the hit/miss/install counters of
    :func:`repro.core.calibcache.last_run_stats`, when a calibration
    cache was attached) appends one line relating the calibration stage's
    time to how much of it the cache elided this run.
    """
    by_stage, total = stage_times(stats_path)
    lines = [f"stage breakdown (total {total:.3f} s; stages may nest):"]
    for stage, seconds in by_stage.items():
        share = 100.0 * seconds / total if total > 0 else 0.0
        lines.append(f"  {stage:<11} {seconds:9.3f} s  {share:5.1f}%")
    if cache_stats is not None:
        lines.append(
            "  calibration cache: "
            f"{cache_stats.get('hits', 0)} hit(s), "
            f"{cache_stats.get('misses', 0)} miss(es), "
            f"{cache_stats.get('installs', 0)} installed"
        )
    return "\n".join(lines)
