"""Persistent warm worker daemons that outlive a single campaign.

The per-campaign ``ProcessPoolExecutor`` pays its full setup bill every
run: fork, payload pickle/unpickle into every worker, and — costlier —
a cold skeleton cache, so each campaign re-derives the deterministic
latency-model structures its replicas need.  Sweeps and benchmark
harnesses run *many* campaigns back to back; :class:`WarmPool` keeps a
fixed set of daemon processes alive across them, with two caches that
persist for the pool's lifetime:

* the **skeleton cache** (same dict :func:`repro.exec.worker.run_pair_job`
  threads through a pool initializer) — machine-build products keyed on
  (architecture, unit seed), shared by every campaign on the pool;
* a **payload cache** keyed on a content digest of the pickled
  :class:`~repro.exec.jobs.CampaignPayload` (which covers architecture,
  axis and config — identical campaigns hash identically), so re-running
  a campaign shape ships its payload zero times instead of once per
  worker.

Dispatch protocol
-----------------
Tasks go on one shared queue any worker may claim, so the payload must be
resident in *every* worker before its tasks are enqueued.  The driver
broadcasts ``("payload", key, payload)`` on each worker's private control
queue exactly once per (worker, key) and mirrors the worker-side FIFO
eviction, so a worker that dequeues a task for ``key`` either has it
cached or is guaranteed to find the install message already in flight on
its control queue — it blocks there, never on a lock.

Results return through the shared-memory channel
(:mod:`repro.exec.shm`): measurement arrays travel zero-pickle, small
headers ride the result queue.  Worker exceptions surface on the driver
as a :class:`RuntimeError` carrying the worker traceback (legacy,
unsupervised dispatch) or feed the retry/quarantine machinery (when a
:class:`~repro.exec.jobs.SupervisionPolicy` is passed).

Supervision & delivery semantics
--------------------------------
With a policy, dispatch is **at-least-once with dedupe-by-unit**: the
driver keeps a bounded submission window, detects dead daemons between
result polls (respawning them, reinstalling the payload, and
re-dispatching every in-flight unit — the victim is unknowable, and the
engine's determinism contract makes duplicate execution harmless), and
rebuilds the whole pool when a unit blows its cost-model deadline (a hung
daemon cannot be interrupted any other way).  Results of superseded task
ids are consumed and their segments unlinked, never merged twice.
Segments are named ``<session>t<task id>`` so the driver can sweep the
leavings of workers that died mid-send (:func:`repro.exec.shm.cleanup_segment`).

Determinism is untouched: workers run the exact
:func:`~repro.exec.worker.run_pair_job` entry point, and results reach
the campaign event stream (:mod:`repro.core.stream`) as completion-order
``PairMeasured`` events whose grid indices let every sink reorder
deterministically — a retried or duplicated unit reproduces its results
bit for bit.
"""

from __future__ import annotations

import atexit
import hashlib
import itertools
import os
import pickle
import queue as queue_mod
import time
import traceback

from repro.errors import ConfigError
from repro.exec.jobs import CalibrationJob
from repro.exec.worker import (
    calibrate_facet,
    fire_worker_faults,
    run_pair_job,
)
from repro.exec.faults import fault_plan
from repro.exec.supervise import UnitState, mp_context, quarantine_results
from repro.exec.shm import cleanup_segment, pack_results, unpack_results

__all__ = ["WarmPool"]

#: payloads cached per worker before FIFO eviction; sized for sweep-style
#: workloads that cycle through a handful of campaign shapes
PAYLOAD_CACHE_CAP = 8

#: distinguishes the shm-segment namespaces of pools sharing one driver
_POOL_SEQ = itertools.count()


def _daemon_main(ctrl, tasks, results, session: str) -> None:
    payloads: dict[str, object] = {}
    order: list[str] = []
    skeleton: dict = {}
    while True:
        task = tasks.get()
        if task is None:
            break
        task_id, key, jobs = task
        try:
            while key not in payloads:
                # The driver guarantees the install message is in flight.
                _, pkey, blob = ctrl.get()
                payloads[pkey] = pickle.loads(blob)
                order.append(pkey)
                while len(order) > PAYLOAD_CACHE_CAP:
                    payloads.pop(order.pop(0), None)
            payload = payloads[key]
            if jobs and isinstance(jobs[0], CalibrationJob):
                # Facet calibration task: the payload is a
                # CalibrationPlan, the result a FacetCalibration — pure
                # objects with no measurement arrays, so they ride the
                # pickle envelope instead of a shared-memory segment.
                # Injected worker faults target PairJobs, not
                # calibration, so the fault hook is skipped.
                out = [
                    calibrate_facet(
                        payload.blueprint,
                        payload.config,
                        job.facet_index,
                        job.facet,
                        payload.start_time,
                    )
                    for job in jobs
                ]
                results.put(("ok", task_id, ("pickle", out)))
                continue
            fire_worker_faults(jobs, payload)
            out = [run_pair_job(job, payload, skeleton) for job in jobs]
            envelope = pack_results(out, name=f"{session}t{task_id}")
            config = getattr(payload, "config", None)
            plan = fault_plan(getattr(config, "inject_faults", None))
            if (
                plan is not None
                and plan.should_corrupt(jobs)
                and envelope[0] == "shm"
            ):
                # Transport-corruption fault: mail a segment name that
                # does not exist.  The real segment stays behind exactly
                # like a worker killed mid-send would leave it, so the
                # driver's transport-failure path must both retry the
                # unit and sweep the stray segment.
                envelope = ("shm", envelope[1] + "x", envelope[2])
            results.put(("ok", task_id, envelope))
        except BaseException:
            results.put(("error", task_id, traceback.format_exc()))


class WarmPool:
    """A fixed set of warm worker daemons shared across campaigns.

    Pass as ``pool=`` to :class:`repro.exec.engine.CampaignExecutor` (or
    :func:`~repro.exec.engine.run_campaign_parallel`).  Always
    :meth:`close` (or use as a context manager) when done; an ``atexit``
    hook reaps leaked pools.
    """

    def __init__(self, workers: int) -> None:
        if workers < 1:
            raise ConfigError(f"workers must be >= 1, got {workers}")
        ctx = mp_context()
        self._ctx = ctx
        self.workers = workers
        # Real Queues (not SimpleQueues): supervision needs timed gets to
        # interleave result collection with worker health checks.
        self._tasks = ctx.Queue()
        self._results = ctx.Queue()
        self._ctrls = [ctx.SimpleQueue() for _ in range(workers)]
        #: driver-side mirror of each worker's payload FIFO
        self._installed: list[list[str]] = [[] for _ in range(workers)]
        #: shm-segment namespace of this pool (worker results are named
        #: ``<session>t<task id>`` so the driver can sweep strays)
        self._session = f"rwp{os.getpid()}s{next(_POOL_SEQ)}"
        #: pickled payloads by digest, for reinstalls after a respawn
        self._blob_cache: dict[str, bytes] = {}
        self._blob_order: list[str] = []
        self._procs = [self._spawn(i) for i in range(workers)]
        self._closed = False
        self._next_task_id = 0
        #: observability counters: installs broadcast vs. cached
        #: dispatches, plus the supervision events (respawned daemons,
        #: full pool rebuilds after a deadline expiry)
        self.stats = {
            "payload_installs": 0,
            "payload_hits": 0,
            "worker_respawns": 0,
            "pool_rebuilds": 0,
        }
        atexit.register(self.close)

    # ------------------------------------------------------------------
    def _spawn(self, i: int):
        proc = self._ctx.Process(
            target=_daemon_main,
            args=(self._ctrls[i], self._tasks, self._results, self._session),
            daemon=True,
        )
        proc.start()
        return proc

    def _segment_name(self, task_id: int) -> str:
        return f"{self._session}t{task_id}"

    def _push_payload(self, i: int, key: str) -> bool:
        """Send one payload install to worker ``i`` (mirror-deduplicated)."""
        mirror = self._installed[i]
        if key in mirror:
            return False
        self._ctrls[i].put(("payload", key, self._blob_cache[key]))
        mirror.append(key)
        while len(mirror) > PAYLOAD_CACHE_CAP:
            mirror.pop(0)
        return True

    def _install_payload(self, payload) -> str:
        blob = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
        key = hashlib.sha256(blob).hexdigest()
        if key not in self._blob_cache:
            self._blob_cache[key] = blob
            self._blob_order.append(key)
            while len(self._blob_order) > PAYLOAD_CACHE_CAP:
                self._blob_cache.pop(self._blob_order.pop(0), None)
        fresh = False
        for i in range(self.workers):
            if self._push_payload(i, key):
                fresh = True
        if fresh:
            self.stats["payload_installs"] += 1
        else:
            self.stats["payload_hits"] += 1
        return key

    # ------------------------------------------------------------------
    def _respawn_worker(self, i: int, key: "str | None") -> None:
        """Replace one dead daemon; reinstall the active payload."""
        proc = self._procs[i]
        if proc.is_alive():  # pragma: no cover - defensive
            proc.terminate()
        proc.join(timeout=2.0)
        if proc.is_alive():  # pragma: no cover - unkillable worker
            proc.kill()
            proc.join(timeout=1.0)
        self._ctrls[i] = self._ctx.SimpleQueue()
        self._installed[i] = []
        self._procs[i] = self._spawn(i)
        self.stats["worker_respawns"] += 1
        if key is not None:
            self._push_payload(i, key)

    def _rebuild(self, key: "str | None", outstanding_ids) -> None:
        """Tear down and restart every daemon (hung-worker escalation).

        Terminated workers can die mid-``put``, so the shared queues are
        replaced wholesale rather than trusted; stray segments of the
        abandoned tasks are swept by name.
        """
        self.stats["pool_rebuilds"] += 1
        for proc in self._procs:
            if proc.is_alive():
                proc.terminate()
        for proc in self._procs:
            proc.join(timeout=2.0)
            if proc.is_alive():  # pragma: no cover - unkillable worker
                proc.kill()
                proc.join(timeout=1.0)
        self._tasks = self._ctx.Queue()
        self._results = self._ctx.Queue()
        self._ctrls = [self._ctx.SimpleQueue() for _ in range(self.workers)]
        self._installed = [[] for _ in range(self.workers)]
        for task_id in outstanding_ids:
            cleanup_segment(self._segment_name(task_id))
        self._procs = [self._spawn(i) for i in range(self.workers)]
        if key is not None:
            for i in range(self.workers):
                self._push_payload(i, key)

    def _discard_stale(self, status: str, body) -> None:
        """Consume a superseded result so its shm segment is released."""
        if status != "ok":
            return
        try:
            unpack_results(body)
        except Exception:
            if isinstance(body, tuple) and body and body[0] == "shm":
                cleanup_segment(body[1])

    def _drain_stale_results(self) -> None:
        while True:
            try:
                status, _task_id, body = self._results.get_nowait()
            except (queue_mod.Empty, OSError, ValueError):
                return
            self._discard_stale(status, body)

    # ------------------------------------------------------------------
    def run_units(
        self,
        payload,
        units,
        policy=None,
        costs=None,
        guard=None,
        on_result=None,
        on_retry=None,
    ) -> list:
        """Run job chunks on the pool; returns the flat result list.

        ``units`` is a list of job lists, already in dispatch order.
        Without a ``policy`` this is the legacy unsupervised path:
        everything is enqueued upfront and the first worker error raises.  With a
        :class:`~repro.exec.jobs.SupervisionPolicy` (plus optional
        per-unit ``costs``, a shutdown ``guard`` and an ``on_result``
        sink), dispatch is windowed and supervised — crash respawn +
        re-dispatch, deadline-triggered pool rebuild, bounded retries with
        quarantine — with at-least-once delivery deduplicated by unit.
        ``on_retry`` (if given) fires with ``(jobs, attempts, cause)``
        whenever a failed unit is about to be re-dispatched — the
        executor wires it to :class:`~repro.core.stream.PairRetried`
        events.
        """
        if self._closed:
            raise ConfigError("pool is closed")
        if not units:
            return []
        self._drain_stale_results()
        key = self._install_payload(payload)
        sink = on_result if on_result is not None else (lambda results: None)
        states = [
            UnitState(unit, 0.0 if costs is None else costs[i])
            for i, unit in enumerate(units)
        ]
        pending = list(states)
        outstanding: dict[int, UnitState] = {}
        out: list = []
        #: bounded submission window (supervised mode) keeps the task
        #: queue shallow so a shutdown signal leaves most pending units
        #: never-dispatched instead of already claimed by workers
        window = None if policy is None else max(2 * self.workers, 2)
        poll_s = 0.1 if policy is None else max(policy.poll_s, 0.01)

        def interrupted() -> bool:
            return guard is not None and guard.requested

        def in_flight() -> int:
            return len({id(s) for s in outstanding.values()})

        def submit(state: UnitState) -> None:
            task_id = self._next_task_id
            self._next_task_id += 1
            state.task_ids = {task_id}
            outstanding[task_id] = state
            timeout = (
                None if policy is None else policy.timeout_for(state.cost)
            )
            state.deadline = (
                None if timeout is None else time.monotonic() + timeout
            )
            self._tasks.put((task_id, key, state.jobs_for_attempt()))

        def pump() -> None:
            while pending and not interrupted():
                if window is not None and in_flight() >= window:
                    return
                submit(pending.pop(0))

        def complete(state: UnitState, results) -> None:
            for task_id in state.task_ids:
                outstanding.pop(task_id, None)
            state.task_ids = set()
            for res in results:
                res.pair.n_retries = state.attempts
            out.extend(results)
            sink(results)

        def fail(state: UnitState, cause: str) -> None:
            for task_id in state.task_ids:
                outstanding.pop(task_id, None)
                # The worker may have died between creating its result
                # segment and mailing the name; sweep it by construction.
                cleanup_segment(self._segment_name(task_id))
            state.task_ids = set()
            if policy is None:
                raise RuntimeError(f"warm worker failed:\n{cause}")
            state.attempts += 1
            if state.attempts > policy.max_retries:
                complete(
                    state,
                    quarantine_results(state.jobs, state.attempts, cause),
                )
                return
            if on_retry is not None:
                on_retry(state.jobs, state.attempts, cause)
            backoff = policy.backoff_for(state.attempts)
            if backoff > 0.0:
                time.sleep(backoff)
            submit(state)

        def supervise() -> None:
            dead = [
                i
                for i, proc in enumerate(self._procs)
                if not proc.is_alive()
            ]
            if dead:
                if policy is None:
                    raise RuntimeError(
                        "warm worker died unexpectedly (crash without a "
                        "supervision policy to retry under)"
                    )
                for i in dead:
                    self._respawn_worker(i, key)
                # The dead daemon's claimed task is unknowable, so every
                # in-flight unit re-dispatches; duplicates are absorbed by
                # the dedupe-by-unit bookkeeping and determinism.
                for state in list(
                    {id(s): s for s in outstanding.values()}.values()
                ):
                    fail(state, "worker-crash (daemon died)")
                return
            if policy is None:
                return
            now = time.monotonic()
            distinct = list(
                {id(s): s for s in outstanding.values()}.values()
            )
            expired = [
                s
                for s in distinct
                if s.deadline is not None and now > s.deadline
            ]
            if not expired:
                return
            # A hung daemon cannot be interrupted; rebuild the pool and
            # re-dispatch the innocents at their current attempt count.
            self._rebuild(
                key, [tid for s in distinct for tid in s.task_ids]
            )
            expired_ids = {id(s) for s in expired}
            for state in distinct:
                if id(state) in expired_ids:
                    fail(state, "job-timeout (hung daemon)")
                else:
                    for task_id in state.task_ids:
                        outstanding.pop(task_id, None)
                    state.task_ids = set()
                    submit(state)

        pump()
        while outstanding or (pending and not interrupted()):
            try:
                status, task_id, body = self._results.get(timeout=poll_s)
            except queue_mod.Empty:
                supervise()
                pump()
                continue
            state = outstanding.get(task_id)
            if state is None:
                self._discard_stale(status, body)
                continue
            if status == "error":
                fail(state, body)
            else:
                try:
                    results = unpack_results(body)
                except Exception as exc:
                    fail(
                        state,
                        "result transport failed: "
                        f"{type(exc).__name__}: {exc}",
                    )
                else:
                    complete(state, results)
            pump()
        return out

    # ------------------------------------------------------------------
    def run_calibrations(self, plan, jobs) -> list:
        """Run facet calibrations on the pool; results in job order.

        ``plan`` is a :class:`~repro.exec.jobs.CalibrationPlan` (installed
        through the same content-addressed payload cache campaign payloads
        use) and ``jobs`` a list of
        :class:`~repro.exec.jobs.CalibrationJob`.  Each job becomes its
        own task so the facets spread across daemons; because every
        replica calibration is a pure function of the plan and the job,
        dispatch order cannot affect results.  Unsupervised: calibration
        runs before any measurement is journaled, so a dead daemon simply
        fails the campaign like the legacy unsupervised pair path does.
        """
        if self._closed:
            raise ConfigError("pool is closed")
        if not jobs:
            return []
        self._drain_stale_results()
        key = self._install_payload(plan)
        position: dict[int, int] = {}
        for job in jobs:
            task_id = self._next_task_id
            self._next_task_id += 1
            position[task_id] = len(position)
            self._tasks.put((task_id, key, [job]))
        out: list = [None] * len(jobs)
        remaining = len(jobs)
        while remaining:
            try:
                status, task_id, body = self._results.get(timeout=0.1)
            except queue_mod.Empty:
                if any(not proc.is_alive() for proc in self._procs):
                    raise RuntimeError(
                        "warm worker died during facet calibration"
                    )
                continue
            if task_id not in position:
                self._discard_stale(status, body)
                continue
            if status == "error":
                raise RuntimeError(f"warm worker failed:\n{body}")
            out[position.pop(task_id)] = unpack_results(body)[0]
            remaining -= 1
        return out

    # ------------------------------------------------------------------
    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        try:
            for _ in self._procs:
                self._tasks.put(None)
        except Exception:  # pragma: no cover - queue already torn down
            pass
        for proc in self._procs:
            proc.join(timeout=5)
        # Escalate: a wedged or hung daemon must not leak past close().
        for proc in self._procs:
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=2)
            if proc.is_alive():  # pragma: no cover - unkillable worker
                proc.kill()
                proc.join(timeout=2)
        try:
            self._drain_stale_results()
        except Exception:  # pragma: no cover - queue already torn down
            pass
        self._sweep_session_segments()
        atexit.unregister(self.close)

    def _sweep_session_segments(self) -> None:
        """Unlink any shm segment this pool's workers left behind."""
        shm_dir = "/dev/shm"
        if not os.path.isdir(shm_dir):  # pragma: no cover - non-Linux
            return
        for entry in os.listdir(shm_dir):
            if entry.startswith(self._session):
                cleanup_segment(entry)

    def __enter__(self) -> "WarmPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
