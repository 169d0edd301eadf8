"""The repository benchmark: one command, three workloads, checked outputs.

Usage (from the repository root)::

    python3 perfbench/run.py --workload sm-grid-a100 --seed 1 --seconds 30 --trace 0

``--trace 0`` times the workload untraced for ``--seconds`` and prints the
end-to-end metrics.  ``--trace 1`` runs the same units untraced and then
traced (see ``tracing.py``) and prints the per-layer metrics.  Either way
the outputs are checked outside the timed region, a report line with the
host, inputs and sample spread is printed, and the last line is the result
object ``{"correct", "attempted", "failed", "metrics"}``.

The program is imported from ``src/`` next to this directory and nowhere
else; without it the command fails before printing a result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
#: set-ups timed per run, each in a fresh interpreter
SETUP_SAMPLES = 3
SETUP_TIMEOUT_S = 60

UNITS = {
    "setup_s": "s",
    "campaign_wall_s": "s",
    "measurements_per_s": "1/s",
    "campaigns_per_s": "1/s",
    "campaign_latency_p50_s": "s",
    "campaign_latency_p75_s": "s",
    "latency_rel_error_p50": "1",
    "latency_rel_error_p90": "1",
    "pair_ok_frac": "1",
    "campaign_ok_frac": "1",
    "setup_rss_mb": "MB",
}


def _layer_unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_pct"):
        return "%"
    if name.endswith(("_ratio", "_frac")):
        return "1"
    return "count"


def _commit() -> str:
    """The checkout's commit from ``.git`` when present, else ``unknown``."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _host() -> dict:
    import numpy

    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "commit": _commit(),
    }


def _setup_samples(workload: str, scratch: Path) -> tuple[list[float], list[float]]:
    """Seconds from interpreter launch to ready-to-submit, and peak RSS then.

    One sample per fresh process.
    """
    samples, rss = [], []
    for i in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).with_name("setup_probe.py")),
             workload, str(scratch / f"setup{i}")],
            cwd=ROOT,
            stdout=subprocess.PIPE,
            text=True,
        )
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.communicate(timeout=SETUP_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        word, _, rss_mb = line.partition(" ")
        if word != "ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up probe exited {proc.returncode}")
        samples.append(elapsed)
        rss.append(float(rss_mb))
    return samples, rss


def plain_run(workload, seed: int, seconds: float, scratch: Path):
    import workloads
    from metrics import summary

    setup, setup_rss = _setup_samples(workload.name, scratch)
    run = workloads.run_units(workload, seed, seconds, scratch)
    workloads.check_determinism(workload, run, seed, scratch)
    metrics, samples = workloads.end_to_end(run)
    samples["setup_s"] = summary(setup)
    samples["setup_rss_mb"] = summary(setup_rss)
    metrics["setup_s"] = samples["setup_s"]["median"]
    metrics["setup_rss_mb"] = samples["setup_rss_mb"]["median"]
    return run.tally, metrics, {
        "units": len(run.walls),
        # not gated: the largest switch window of the run's seeds sets it
        "run_peak_rss_mb": run.peak_rss_mb,
        "samples": samples,
    }


def traced_run(workload, seed: int, seconds: float, scratch: Path):
    """The same units untraced, then traced; both outputs and counts compared.

    Each half gets half of ``seconds``, so a traced run lasts about as long
    as an untraced one.
    """
    import workloads
    from tracing import LayerTracer

    untraced = workloads.run_units(workload, seed, seconds / 2, scratch)
    tally = untraced.tally
    workloads.check_determinism(workload, untraced, seed, scratch)

    tracer = LayerTracer()
    originals = tracer.snapshot()
    t0, cpu0 = time.perf_counter(), time.process_time()
    with tracer.installed():
        traced = workloads.run_units(
            workload, seed, seconds, scratch, units=len(untraced.walls), tracer=tracer
        )
    # host-speed-scaled unit walls, so host drift between the halves cancels
    work = [sum(w * f for w, f in zip(r.walls, r.speed)) for r in (untraced, traced)]
    metrics = tracer.metrics(
        time.perf_counter() - t0,
        time.process_time() - cpu0,
        overhead_pct=100.0 * (work[1] - work[0]) / work[0],
    )

    if any(a is not b for a, b in zip(originals, tracer.snapshot())):
        tally.fail("traced run left a wrapper installed")
    tally.attempted += traced.tally.attempted
    tally.failed += traced.tally.failed
    tally.problems.extend(traced.tally.problems)
    before = {o.key: o for o in untraced.outcomes if o.result is not None}
    for o in traced.outcomes:
        if o.result is None or o.key not in before:
            continue
        if workloads.fingerprint(o.result, scratch) != workloads.fingerprint(
            before[o.key].result, scratch
        ):
            tally.fail(f"traced campaign {o.key} differs from its untraced run")
    counts = {
        "measurements": tracer.counts["passblock.accepted"],
        "calibcache.hits": tracer.counts["calibcache.hits"],
        "calibcache.misses": tracer.counts["calibcache.misses"],
        "journal.appends": tracer.counts["journal.appends"],
    }
    for name, value in counts.items():
        if value != untraced.tally.observed[name]:
            tally.fail(
                f"traced {name} = {value}, untraced = {untraced.tally.observed[name]}"
            )
    if tracer.counts["phase3.block_calls"] == 0:
        tally.fail("evaluate_switch_block_deferred never ran: not the pass-block path")
    if metrics["phase2.calls"] < counts["measurements"]:
        tally.fail("fewer simulated passes than accepted measurements")
    return tally, metrics, {
        "units": len(untraced.walls),
        "counts": counts,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
        print(f"perfbench: repro imported from {repro.__file__}", file=sys.stderr)
        return 2
    import workloads

    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    WORK.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(dir=WORK))
    try:
        run = traced_run if args.trace else plain_run
        tally, metrics, detail = run(workload, args.seed, args.seconds, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:  # another run's scratch is still there
            pass

    report = {
        "workload": workload.name,
        "seed": args.seed,
        "held_out_seed": workloads.HELD_OUT_SEED,
        "seconds": args.seconds,
        "trace": args.trace,
        "why": workload.why,
        "stresses": workload.stresses,
        "bypasses": workload.bypasses,
        "recipe": workload.recipe(),
        "host": _host(),
        "problems": tally.problems,
        **detail,
    }
    units = UNITS if not args.trace else {n: _layer_unit(n) for n in metrics}
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": not tally.problems and tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit} for name, unit in units.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
