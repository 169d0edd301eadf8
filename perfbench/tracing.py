"""Per-layer timing by wrapping the program's functions where callers bind them.

The traced run must execute exactly the code the untraced run executes, so
nothing here touches ``repro.trace`` (an attached tracer switches
``measure_pair`` onto the scalar reference loop).  Instead
:class:`LayerTracer` replaces a fixed set of module and class attributes
with timing wrappers for the duration of a ``with tracer.installed():``
block and puts the originals back afterwards.

Accounting
----------
Busy and self times are thread CPU seconds (``time.thread_time``).  Each
thread keeps its own span stack; a span's self time is its duration minus
the spans it called on the same thread, so self times never count a
second of one thread twice.  The traced wall then splits exactly into

* the self times of every layer on every thread,
* ``trace.unattributed_s``: process CPU outside any span (event loop,
  benchmark glue, code no wrapper covers), and
* ``trace.offcpu_s``: wall minus process CPU — waiting on fsync, on idle
  fleet slots, or on other processes for a core; negative when threads
  ran on several cores at once (NumPy releases the interpreter lock).

Waits and lags (scheduler queue wait, event-bridge lag, fleet busy
fraction) are wall-clock seconds.
"""

from __future__ import annotations

import contextlib
import functools
import threading
import time
from collections import defaultdict

from metrics import percentile

#: the printed metric holding each traced layer's self time (its busy time
#: where the layer never calls another traced layer); with
#: ``trace.unattributed_s`` they make up the traced CPU
SELF_METRICS = (
    "phase2.busy_s",
    "phase3.busy_s",
    "passblock.self_s",
    "clustering.busy_s",
    "stats.rse_busy_s",
    "calibration.self_s",
    "calibcache.busy_s",
    "exec.self_s",
    "stream.self_s",
    "journal.busy_s",
    "scheduler.self_s",
    "bridge.busy_s",
)


class LayerTracer:
    """Span and counter store plus the wrappers that feed it."""

    def __init__(self) -> None:
        self.busy_s: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.queue_waits_s: list[float] = []
        self.bridge_lags_s: list[float] = []
        self.fleet_busy_s = 0.0
        self.fleet_slot_s = 0.0
        self._published: dict[int, float] = {}
        self._lock = threading.Lock()
        self._local = threading.local()
        self._saved: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    # spans
    # ------------------------------------------------------------------
    def _thread_state(self):
        local = self._local
        if not hasattr(local, "frames"):
            local.frames = []
            local.depth = defaultdict(int)
        return local.frames, local.depth

    def span(self, layer: str, fn, counter: str | None = None, on_result=None):
        """``fn`` wrapped so each call is a span of ``layer``.

        ``counter`` names a count bumped once per call; ``on_result`` sees
        the return value (outside the span) to record outcome counts.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frames, depth = self._thread_state()
            frames.append(0.0)
            depth[layer] += 1
            t0 = time.thread_time()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.thread_time() - t0
                children = frames.pop()
                depth[layer] -= 1
                if frames:
                    frames[-1] += elapsed
                with self._lock:
                    self.self_s[layer] += elapsed - children
                    if depth[layer] == 0:  # nested same-layer spans count once
                        self.busy_s[layer] += elapsed
                    if counter is not None:
                        self.counts[counter] += 1
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def bump(self, counter: str, n: int = 1) -> None:
        with self._lock:
            self.counts[counter] += n

    def received(self, event) -> None:
        """A subscriber got ``event``: record its publish-to-receipt lag."""
        t_published = self._published.pop(id(event), None)
        if t_published is not None:
            self.bridge_lags_s.append(time.perf_counter() - t_published)

    # ------------------------------------------------------------------
    # installation
    # ------------------------------------------------------------------
    def _replace(self, owner, name: str, make) -> None:
        """Swap ``owner.name`` for ``make(original)``, remembering the original.

        Class attributes are read from the class ``__dict__`` so a
        classmethod is wrapped (and later restored) as the descriptor it is.
        """
        if isinstance(owner, type):
            raw = owner.__dict__[name]
            if isinstance(raw, classmethod):
                new = classmethod(make(raw.__func__))
            else:
                new = make(raw)
        else:
            raw = getattr(owner, name)
            new = make(raw)
        self._saved.append((owner, name, raw))
        setattr(owner, name, new)

    def snapshot(self) -> list:
        """The objects currently bound at every attribute the tracer replaces."""
        return [
            owner.__dict__[name] if isinstance(owner, type) else getattr(owner, name)
            for owner, name, _ in self._plan()
        ]

    def _plan(self):
        from repro import machine as machine_mod
        from repro.clustering import adaptive
        from repro.core import passblock
        from repro.core.calibcache import CalibrationCache
        from repro.core.journal import CampaignJournal
        from repro.core.stream import StreamDispatcher
        from repro.exec import engine
        from repro.service import requests as requests_mod
        from repro.service import service as service_mod
        from repro.service.bridge import EventBroadcast
        from repro.service.scheduler import FairShareScheduler, WorkerFleet
        from repro.stats.rse import RseStoppingRule

        def span(layer, counter=None, on_result=None):
            return lambda fn: self.span(layer, fn, counter, on_result)

        def blocked_pair(pair):
            self.bump("passblock.accepted", pair.n_measurements)

        def cache_outcome(entry):
            self.bump("calibcache.hits" if entry is not None else "calibcache.misses")

        return [
            # simulate and evaluate, as the pass-block loop binds them
            (passblock, "run_switch_benchmark", span("phase2", "phase2.calls")),
            (passblock, "evaluate_switch_block_deferred",
             span("phase3", "phase3.block_calls")),
            (passblock, "evaluate_switch", span("phase3", "phase3.single_calls")),
            (passblock, "measure_pair_blocked", span("passblock", None, blocked_pair)),
            # decide: outlier filter (imported at call time) and stopping rule
            (adaptive, "adaptive_dbscan", span("clustering", "clustering.calls")),
            (RseStoppingRule, "should_stop", span("stats", "stats.rse_calls")),
            # calibration: driver scheme and replica scheme
            (engine.CampaignExecutor, "_calibrate_on_driver",
             span("calibration", "calibration.facets")),
            (engine, "calibrate_facet", span("calibration", "calibration.facets")),
            (CalibrationCache, "get", span("calibcache", None, cache_outcome)),
            (CalibrationCache, "install", span("calibcache")),
            # engine: campaign orchestration, machine and replica builds
            (engine, "run_campaign_parallel", span("exec")),
            (engine.CampaignExecutor, "prepare", span("exec")),
            (engine.CampaignExecutor, "finish", span("exec")),
            (engine, "run_pair_job", span("exec", "exec.pair_jobs")),
            (service_mod, "run_pair_job", span("exec", "exec.pair_jobs")),
            (machine_mod, "make_machine", span("exec")),
            (requests_mod, "make_machine", span("exec")),
            # consume: event stream and journal
            (StreamDispatcher, "emit", span("stream", "stream.events")),
            (CampaignJournal, "open", span("journal")),
            (CampaignJournal, "append", span("journal", "journal.appends")),
            (CampaignJournal, "close", span("journal")),
            # serve: scheduler, fleet, event bridge
            (FairShareScheduler, "submit", self._wrap_submit),
            (WorkerFleet, "__init__", self._wrap_fleet_init),
            (WorkerFleet, "close", self._wrap_fleet_close),
            (EventBroadcast, "publish", self._wrap_publish),
        ]

    def _wrap_submit(self, submit):
        """Shards: count, queue wait (submit to start), and a span around ``fn``."""

        def traced_submit(scheduler, queue, cost, fn):
            t_submit = time.perf_counter()
            run = self.span("scheduler", fn)

            def shard():
                wait = time.perf_counter() - t_submit
                with self._lock:
                    self.queue_waits_s.append(wait)
                return run()

            self.bump("scheduler.shards")
            return submit(scheduler, queue, cost, shard)

        return traced_submit

    def _wrap_fleet_init(self, init):
        """Time every task a fleet thread runs (wall seconds)."""

        def traced_init(fleet, *args, **kwargs):
            init(fleet, *args, **kwargs)
            fleet.traced_since = time.perf_counter()
            submit = fleet.executor.submit

            def timed_submit(fn, *fn_args, **fn_kwargs):
                def task():
                    t0 = time.perf_counter()
                    try:
                        return fn(*fn_args, **fn_kwargs)
                    finally:
                        with self._lock:
                            self.fleet_busy_s += time.perf_counter() - t0

                return submit(task)

            fleet.executor.submit = timed_submit

        return traced_init

    def _wrap_fleet_close(self, close):
        """Count the slot-seconds of a fleet's life, the busy fraction's base."""

        def traced_close(fleet):
            close(fleet)
            since = getattr(fleet, "traced_since", None)
            if since is not None:  # built before the tracer was installed
                with self._lock:
                    self.fleet_slot_s += fleet.slots * (time.perf_counter() - since)

        return traced_close

    def _wrap_publish(self, publish):
        traced = self.span("bridge", publish, "bridge.events")

        def traced_publish(broadcast, event):
            self._published[id(event)] = time.perf_counter()
            return traced(broadcast, event)

        return traced_publish

    @contextlib.contextmanager
    def installed(self):
        """Wrap every target for the block's duration, then restore them."""
        try:
            for owner, name, make in self._plan():
                self._replace(owner, name, make)
            yield self
        finally:
            while self._saved:
                owner, name, raw = self._saved.pop()
                setattr(owner, name, raw)

    # ------------------------------------------------------------------
    # report
    # ------------------------------------------------------------------
    def metrics(self, wall_s: float, cpu_s: float, overhead_pct: float) -> dict[str, float]:
        """Per-layer metrics of a traced run of ``wall_s`` wall, ``cpu_s`` CPU seconds."""
        c, busy, own = self.counts, self.busy_s, self.self_s
        phase2_calls = c["phase2.calls"]
        waits, lags = self.queue_waits_s, self.bridge_lags_s
        slot_s = self.fleet_slot_s
        out = {
            "phase2.calls": phase2_calls,
            "phase2.busy_s": busy["phase2"],
            "phase3.calls": c["phase3.block_calls"] + c["phase3.single_calls"],
            "phase3.busy_s": busy["phase3"],
            "passblock.self_s": own["passblock"],
            "passblock.useful_ratio": (
                c["passblock.accepted"] / phase2_calls if phase2_calls else 0.0
            ),
            "clustering.calls": c["clustering.calls"],
            "clustering.busy_s": busy["clustering"],
            "stats.rse_calls": c["stats.rse_calls"],
            "stats.rse_busy_s": busy["stats"],
            "calibration.facets": c["calibration.facets"],
            "calibration.busy_s": busy["calibration"],
            "calibration.self_s": own["calibration"],
            "calibcache.hits": c["calibcache.hits"],
            "calibcache.misses": c["calibcache.misses"],
            "calibcache.busy_s": busy["calibcache"],
            "exec.pair_jobs": c["exec.pair_jobs"],
            "exec.self_s": own["exec"],
            "stream.events": c["stream.events"],
            "stream.busy_s": busy["stream"],
            "stream.self_s": own["stream"],
            "journal.appends": c["journal.appends"],
            "journal.busy_s": busy["journal"],
            "scheduler.shards": c["scheduler.shards"],
            "scheduler.self_s": own["scheduler"],
            "scheduler.queue_wait_p50_s": percentile(waits, 50),
            "scheduler.queue_wait_p75_s": percentile(waits, 75),
            "fleet.busy_frac": self.fleet_busy_s / slot_s if slot_s > 0 else 0.0,
            "bridge.events": c["bridge.events"],
            "bridge.busy_s": busy["bridge"],
            "bridge.lag_p50_ms": percentile(lags, 50) * 1e3,
            "bridge.lag_p99_ms": percentile(lags, 99) * 1e3,
        }
        out.update({
            "trace.wall_s": wall_s,
            "trace.cpu_s": cpu_s,
            "trace.unattributed_s": cpu_s - sum(out[name] for name in SELF_METRICS),
            "trace.offcpu_s": wall_s - cpu_s,
            "trace.overhead_pct": overhead_pct,
        })
        return out
