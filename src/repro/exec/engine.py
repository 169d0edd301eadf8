"""The campaign executor: the one campaign driver, serial or fanned out.

Execution model
---------------
Every campaign runs through :class:`CampaignExecutor` and its
prepare → dispatch → finish seam; ``workers`` selects the machine policy.

``workers=None`` is the *shared timeline*, the LATEST tool's own
execution model and :func:`repro.core.campaign.run_campaign`'s default:
facet by facet, in facet order, the driver machine calibrates the facet
(:meth:`CampaignExecutor._calibrate_on_driver`), emits its
``FacetPrepared``, and then measures that facet's pairs in flat grid
order on its own clock and RNG, interleaving the facet's ``PairSkipped``
and ``PairMeasured`` events by grid index.  Each pair starts from the
machine state the previous pair left behind, so no pair can be skipped,
replayed or retried in isolation: the shared timeline rejects
``resume``, the calibration cache and fault injection, and its journal
is a durable record that can never be resumed.

``workers >= 1`` is *engine mode*.  Single-facet campaigns calibrate
(phase 1 + probe) on the driver's machine with exactly the same draws as
the shared timeline — the *driver* calibration scheme, inherently
sequential (workload growth feeds back into the kernel) and cheap.
Multi-facet campaigns (core×memory grids, locked-SM facet sweeps) use
the *replica* scheme: each facet is calibrated on an independent replica
machine rebuilt from the blueprint with the facet's own
:func:`~repro.exec.jobs.calibration_seed_sequence` stream, making every
facet calibration a pure function of ``(blueprint, config, facet_index,
facet, start_time)`` — so cold campaigns dispatch them *in parallel*
across the process pool (or warm-pool daemons) with results provably
bit-identical to sequential execution, and warm campaigns replay them
from the persistent calibration cache
(:mod:`repro.core.calibcache`, ``--calibration-cache DIR``) without a
single phase-1 or probe pass.  Both schemes, and the shared timeline,
run one calibration body, :func:`repro.exec.worker.calibrate_on`.  The
driver clock then advances by each
facet's recorded calibration time in facet order, so the campaign epoch
(and with it every pair seed stream) is identical however the
calibrations were obtained.  Every valid grid point then
becomes a :class:`~repro.exec.jobs.PairJob`: a handful of numbers (flat
grid index, SM frequencies, and — for 2-D campaigns — the memory-clock
coordinate).  All heavy shared inputs — config, blueprint, per-facet
phase-1 statistics, probe window estimates, campaign epoch — travel once
per worker process as a :class:`~repro.exec.jobs.CampaignPayload` through
the pool initializer, never inside jobs.

Workers rebuild the machine from the blueprint (same GPU spec, same unit
seed, same thermal configuration) with a seed stream derived from the
pair index, and run the unchanged :func:`repro.core.campaign.measure_pair`
loop; the worker-side entry points and replica construction live in
:mod:`repro.exec.worker` (re-exported here), including the per-process
skeleton cache that amortizes replica construction cost across jobs.

Dispatch is **straggler-aware**: jobs are submitted longest-expected-first
(``expected_pair_cost``, a cost model built from the probe latencies) and
collected as they complete, so a slow pair starts early instead of
serializing the pool tail.  Results leave the executor as
**completion-order** :class:`~repro.core.stream.PairMeasured` events on
the campaign event stream (:mod:`repro.core.stream`), each carrying its
flat grid index; because jobs share no mutable state and every stream
consumer — the :class:`~repro.core.results.ResultAccumulator` that
assembles the :class:`CampaignResult`, the journal, incremental CSV
output — keys on that index, the result (per-pair measurements, outlier
labels, CSV bytes) is bit-identical for every worker count and
submission order; scheduling only changes wall-clock time.  It differs
from the shared timeline's, because pairs no longer share one clock/RNG
stream.

``workers == 1`` executes the jobs in-process (no pool, no pickling) but
through the same job pipeline, so it reproduces ``workers == N`` exactly.

Process pools use the ``fork`` start method where available (Linux) so
workers inherit the loaded modules; ``spawn`` elsewhere.

Fault tolerance
---------------
In engine mode, dispatch is **supervised**
(:class:`~repro.exec.jobs.SupervisionPolicy`, with the generic
retry/deadline/quarantine loops living in :mod:`repro.exec.supervise`):
a unit (one job) that
crashes its worker, times out against its cost-model-derived deadline, or
fails result transport is retried on a rebuilt pool with exponential
backoff — announced as a :class:`~repro.core.stream.PairRetried` event —
and because replica seed streams derive only from grid indices, a retry
is *bit-identical* to an undisturbed run.  A unit that keeps failing past
``config.max_job_retries`` is quarantined: its pairs become recorded skip
reasons (the same skip machinery phase 1 uses) instead of aborting the
campaign.  With a journal attached
(:class:`~repro.core.journal.CampaignJournal`, subscribed as a
:class:`~repro.core.journal.JournalSink`), every completed pair is
durably recorded the moment its event is dispatched, SIGINT/SIGTERM
drain in-flight units (the shared timeline stops before its next
measured pair) and raise
:class:`~repro.errors.CampaignInterrupted`, and ``resume=True``
validates the campaign fingerprint, replays the journaled pairs as
synthetic stream events, and measures only the rest — reconstructing the
identical :class:`CampaignResult`.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from contextlib import ExitStack
from dataclasses import dataclass, field

from repro.core.calibcache import (
    CalibrationCache,
    FacetCalibration,
    calibration_fingerprint,
    record_run_stats,
)
from repro.core.campaign import measure_pair
from repro.core.context import BenchContext
from repro.core.journal import (
    CampaignJournal,
    JournalSink,
    ShutdownGuard,
    campaign_fingerprint,
    replay_events,
)
from repro.core.config import LatestConfig
from repro.core.csvio import write_campaign_csvs
from repro.core.results import CampaignResult, PairResult, ResultAccumulator
from repro.core.stream import (
    CampaignFinished,
    CampaignStarted,
    FacetPrepared,
    PairMeasured,
    PairRetried,
    PairSkipped,
    StreamDispatcher,
)
from repro.errors import CampaignInterrupted, ConfigError
from repro.exec.faults import FaultPlan
from repro.exec.jobs import (
    CalibrationJob,
    CalibrationPlan,
    CampaignPayload,
    PairJob,
    PairJobResult,
    ProbeCostModel,
    SupervisionPolicy,
)
from repro.exec.supervise import (
    mp_context,
    run_units_inprocess,
    run_units_pool,
)
from repro.exec.worker import (
    calibrate_facet,
    calibrate_on,
    fire_worker_faults,
    run_pair_job,
    worker_calibrate,
    worker_init,
    worker_run_unit,
)
from repro.machine import Machine

__all__ = [
    "CampaignExecutor",
    "PreparedCampaign",
    "fire_worker_faults",
    "mp_context",
    "run_campaign_parallel",
    "run_pair_job",
]


def _facet_prepared(cal: FacetCalibration, cache_hit: bool) -> FacetPrepared:
    """The ``FacetPrepared`` event announcing one facet's calibration."""
    return FacetPrepared(
        facet_index=cal.facet_index,
        facet=cal.facet,
        prepared=cal.prepared,
        phase1=cal.phase1,
        probe=cal.probe,
        cache_hit=cache_hit,
    )


@dataclass
class PreparedCampaign:
    """Everything :meth:`CampaignExecutor.prepare` settles before dispatch.

    The carrier of the prepare → dispatch → finish seam: ``prepare``
    emits the campaign-start events, calibrates every facet, and plans
    the job grid; any dispatcher — the executor's own :meth:`_execute`
    loop or an external one such as the asyncio service tier
    (:mod:`repro.service`) — then measures ``todo`` however it likes,
    records each result's virtual cost in :attr:`elapsed_by_index`, and
    hands the carrier to :meth:`CampaignExecutor.finish` to close the
    timeline and assemble the result.  Because the clock advance in
    ``finish`` sums costs in grid-index order, the result is
    bit-identical for every dispatch interleaving.

    On the shared timeline (``workers=None``) ``prepare`` only opens the
    campaign: calibration and measurement interleave facet by facet on
    the driver machine (:meth:`CampaignExecutor._run_shared_timeline`),
    so ``payload`` is ``None`` and the job lists stay empty.
    """

    #: per-worker shared inputs (blueprint, config, calibrations, epoch);
    #: ``None`` on the shared timeline
    payload: "CampaignPayload | None"
    #: every valid grid point, facet-major index order
    jobs: list
    #: planned driver-side skips, already emitted as ``PairSkipped``
    skips: list
    #: the jobs still to measure (``jobs`` minus journal replays)
    todo: list
    #: per-index virtual cost; prefilled with replayed pairs, grown by
    #: the dispatcher, summed in index order by ``finish``
    elapsed_by_index: dict = field(default_factory=dict)
    #: driver clock at campaign start (wall-virtual origin)
    t_begin: float = 0.0
    #: the campaign's locked-SM facet plan (``None`` when single-facet)
    sm_facets: tuple = None
    #: the driver machine's bench context (calibration on the driver,
    #: axis observables for ``finish``)
    bench: "BenchContext | None" = None
    #: journaled pairs replayed before live dispatch
    n_loaded: int = 0


class CampaignExecutor:
    """Deterministic (optionally parallel) campaign execution.

    Parameters
    ----------
    machine:
        Campaign machine.  Engine mode needs one built by
        :func:`repro.machine.make_machine` (it must carry a blueprint so
        workers can replicate it); the shared timeline needs a blueprint
        only to journal.
    config:
        Campaign configuration; CSV output (if any) is written by the
        driver after the merge.
    workers:
        Process count.  ``1`` runs the job pipeline in-process; any value
        produces the identical :class:`CampaignResult`.  ``None`` runs
        the *shared timeline*: facets are calibrated and pairs measured
        one after another on ``machine`` itself, so every pair's draws
        depend on the machine state the previous pair left behind.  Its
        results differ from engine mode's, and because no pair can be
        re-measured in isolation it rejects ``resume``, a calibration
        cache and fault injection.
    pool:
        Optional :class:`repro.exec.daemon.WarmPool` of persistent worker
        daemons.  When given, jobs dispatch through it instead of a
        per-campaign ``ProcessPoolExecutor`` — the payload and skeleton
        caches then survive across campaigns.  Results are identical.
    journal:
        Optional directory for a durable
        :class:`~repro.core.journal.CampaignJournal`.  Every completed
        pair is recorded as it merges; SIGINT/SIGTERM then drain in-flight
        work, flush the journal and raise
        :class:`~repro.errors.CampaignInterrupted` instead of losing the
        campaign.
    resume:
        Reopen an existing journal (fingerprint-validated), replay its
        pairs, and measure only the rest.  The reconstructed
        :class:`CampaignResult` is bit-identical to an uninterrupted run.
    sinks:
        Extra :class:`~repro.core.stream.CampaignSink` consumers attached
        to the campaign event stream (:mod:`repro.core.stream`).  The
        engine emits ``PairMeasured`` events in *completion order*; each
        carries its flat grid index, so index-keyed sinks reorder
        deterministically (the result accumulator and the journal both
        do).
    """

    def __init__(
        self,
        machine: Machine,
        config: LatestConfig,
        workers: int | None = 1,
        pool=None,
        journal: "str | None" = None,
        resume: bool = False,
        sinks=(),
    ) -> None:
        if workers is None:
            # The shared timeline can neither skip nor re-measure a pair
            # bit-identically: pair k's draws depend on the machine state
            # pair k-1 left behind (the journal module docs say more).
            for knob, needs_engine, why in (
                ("resume", resume, "journaled pairs cannot be skipped"),
                (
                    "calibration_cache",
                    config.calibration_cache is not None,
                    "a skipped calibration cannot be replayed",
                ),
                (
                    "inject_faults",
                    bool(config.inject_faults),
                    "a failed pair cannot be retried",
                ),
            ):
                if needs_engine:
                    raise ConfigError(
                        f"{knob} requires the execution engine (workers "
                        ">= 1): serial campaigns share one RNG/clock "
                        f"timeline, so {why} bit-identically"
                    )
        elif workers < 1:
            raise ConfigError(f"workers must be >= 1, got {workers}")
        elif machine.blueprint is None:
            raise ConfigError(
                "campaign executor needs a machine built by make_machine() "
                "(hand-assembled machines carry no replication blueprint)"
            )
        if resume and journal is None:
            raise ConfigError(
                "resume=True needs the journal directory of the "
                "interrupted campaign (--journal DIR --resume)"
            )
        self.machine = machine
        self.config = config
        self.workers = workers
        self.pool = pool
        self.journal_dir = None if journal is None else str(journal)
        self.resume = bool(resume)
        self.sinks = tuple(sinks)
        #: per-facet fixed pass duration for the dispatch cost model,
        #: filled by :meth:`_calibrate_facets` from each facet's
        #: calibration record
        self._fixed_pass_by_facet: dict = {}
        #: hit/miss/install counters of the calibration cache consulted
        #: by the last :meth:`run` (``None`` when no cache was attached)
        self.calibration_cache_stats: dict | None = None

    # ------------------------------------------------------------------
    def _plan_facet(self, facet_index: int, facet, phase1):
        """One facet's grid points in flat index order: jobs and skips.

        Yields ``(index, PairJob)`` for every measurable point and
        ``(index, PairResult)`` with ``skipped=True`` for every planned
        skip — the one skip planner of every execution mode.  Indices are
        flat positions in the facet-major campaign grid
        (``config.facet_plan()`` × ``config.pairs()``), which for legacy
        campaigns reduces to the pair's position in ``config.pairs()``,
        the seed-stream contract.  ``phase1=None`` means the facet clock
        never settled (the locked memory clock of a grid campaign, or the
        locked SM clock of a swept-axis facet): every point is skipped
        with the axis's ``facet_fail_reason``.  Otherwise a point phase 1
        did not validate is skipped as unreachable or
        statistically indistinguishable.
        """
        axis = self.config.swept_axis()
        grid = self.config.memory_frequencies is not None
        sm_pairs = self.config.pairs()
        valid = set(phase1.valid_pairs) if phase1 is not None else set()
        sm_facet = None if grid or facet is None else float(facet)
        for pair_index, (init, target) in enumerate(sm_pairs):
            sm_key = (float(init), float(target))
            index = facet_index * len(sm_pairs) + pair_index
            if phase1 is None:
                reason = axis.facet_fail_reason
            elif sm_key in valid:
                reason = None
            else:
                reason = (
                    phase1.unreachable.get(sm_key[0])
                    or phase1.unreachable.get(sm_key[1])
                    or "statistically-indistinguishable"
                )
            if reason is not None:
                yield index, PairResult(
                    init_mhz=sm_key[0],
                    target_mhz=sm_key[1],
                    skipped=True,
                    skip_reason=reason,
                    memory_mhz=facet if grid else None,
                    locked_sm_mhz=sm_facet,
                    axis=axis.name,
                )
                continue
            yield index, PairJob(
                index=index,
                init_mhz=sm_key[0],
                target_mhz=sm_key[1],
                memory_mhz=facet if grid else None,
                memory_index=facet_index if grid else None,
                axis=axis.name,
                locked_sm_mhz=sm_facet,
                locked_sm_index=None if sm_facet is None else facet_index,
            )

    def _build_jobs(
        self, phase1_by_facet: dict
    ) -> tuple[list[PairJob], list[tuple[int, PairResult]]]:
        """Valid grid points become jobs; the rest become planned skips.

        Skips come back as ``(index, PairResult)`` in grid order, ready to
        emit as :class:`~repro.core.stream.PairSkipped` events.
        """
        jobs: list[PairJob] = []
        skips: list[tuple[int, PairResult]] = []
        for facet_index, facet in enumerate(self.config.facet_plan()):
            for index, point in self._plan_facet(
                facet_index, facet, phase1_by_facet.get(facet)
            ):
                if isinstance(point, PairJob):
                    jobs.append(point)
                else:
                    skips.append((index, point))
        return jobs, skips

    def _calibrate_on_driver(
        self, bench: BenchContext, facet_index: int, facet
    ) -> FacetCalibration:
        """Calibrate one facet on the driver machine itself.

        The driver scheme of single-facet engine campaigns and every
        facet of the shared timeline: the driver's clock and RNG advance
        exactly as the pinned golden hashes expect.  The body is
        :func:`repro.exec.worker.calibrate_on`, shared with the replica
        scheme, so both produce the same
        :class:`~repro.core.calibcache.FacetCalibration` shape.
        """
        return calibrate_on(bench, facet_index, facet)

    def _run_facet_calibrations(
        self, todo: list, t_begin: float
    ) -> list[FacetCalibration]:
        """Run replica-scheme calibrations, in parallel when possible.

        Each entry of ``todo`` is ``(facet_index, facet)``.  Because every
        replica calibration is a pure function of its arguments, the three
        dispatch paths — in-process loop, per-campaign process pool, warm
        daemon pool — are interchangeable: results are bit-identical, only
        wall-clock time differs.
        """
        if not todo:
            return []
        config = self.config
        blueprint = self.machine.blueprint
        if self.pool is not None:
            return self.pool.run_calibrations(
                CalibrationPlan(
                    blueprint=blueprint, config=config, start_time=t_begin
                ),
                [
                    CalibrationJob(facet_index=i, facet=facet)
                    for i, facet in todo
                ],
            )
        args = [
            (blueprint, config, i, facet, t_begin) for i, facet in todo
        ]
        if self.workers == 1 or len(args) <= 1:
            return [calibrate_facet(*a) for a in args]
        with ProcessPoolExecutor(
            max_workers=min(self.workers, len(args)),
            mp_context=mp_context(),
        ) as pool:
            return list(pool.map(worker_calibrate, args))

    def _calibrate_facets(
        self, bench: BenchContext, dispatch: StreamDispatcher, fresh: bool
    ) -> tuple[dict, dict]:
        """Calibrate every facet and emit its ``FacetPrepared`` event.

        Two schemes (see the module docs): single-facet campaigns
        calibrate on the driver machine (``"driver"``), multi-facet
        campaigns on per-facet replica machines (``"replica"``) — the
        latter in parallel when workers allow.  When the config names a
        calibration cache and the machine sits at its blueprint start
        time (a fresh build, not a reused machine mid-timeline), each
        facet's calibration is first looked up by its content fingerprint
        and, on a miss, installed after measuring; on a hit the driver
        clock replays the recorded calibration time, so the campaign
        epoch — and every result byte — matches the cold run exactly.
        ``fresh`` is that start-of-timeline eligibility, decided by the
        caller *before* driver-bench construction (which itself advances
        the clock deterministically).

        Returns ``(phase1_by_facet, probe_by_facet)`` and fills
        ``self._fixed_pass_by_facet`` for the dispatch cost model.
        """
        machine, config = self.machine, self.config
        facet_plan = config.facet_plan()
        scheme = "driver" if facet_plan == (None,) else "replica"
        cache = None
        if config.calibration_cache is not None and fresh:
            cache = CalibrationCache(config.calibration_cache)
        keys: dict[int, str] = {}
        calibrations: dict[int, FacetCalibration] = {}
        hits: set[int] = set()
        if cache is not None:
            for facet_index, facet in enumerate(facet_plan):
                keys[facet_index] = calibration_fingerprint(
                    config, machine.blueprint, facet_index, facet, scheme
                )
                entry = cache.get(keys[facet_index])
                if entry is not None:
                    calibrations[facet_index] = entry
                    hits.add(facet_index)
        if scheme == "driver":
            cal = calibrations.get(0)
            if cal is not None:
                # Warm run: the cached calibration consumed exactly this
                # much virtual time on the cold run.  The driver RNG is
                # not drawn from after calibration in engine mode, so
                # replaying the clock advance alone reproduces the
                # campaign epoch — and with it every pair seed stream —
                # bit-identically.
                machine.clock.advance(cal.elapsed_virtual_s)
            else:
                cal = self._calibrate_on_driver(bench, 0, facet_plan[0])
                calibrations[0] = cal
                if cache is not None:
                    cache.install(keys[0], cal)
        else:
            t_begin = machine.clock.now
            todo = [
                (i, facet)
                for i, facet in enumerate(facet_plan)
                if i not in calibrations
            ]
            for cal in self._run_facet_calibrations(todo, t_begin):
                calibrations[cal.facet_index] = cal
                if cache is not None:
                    cache.install(keys[cal.facet_index], cal)
            # Replica-scheme epoch: the driver clock advances by every
            # facet's calibration time in facet order — the same total
            # whether the calibrations ran sequentially, in parallel, or
            # came from the cache.
            for facet_index in range(len(facet_plan)):
                machine.clock.advance(
                    calibrations[facet_index].elapsed_virtual_s
                )
        if cache is not None:
            record_run_stats(cache.stats)
            self.calibration_cache_stats = dict(cache.stats)
        phase1_by_facet: dict = {}
        probe_by_facet: dict = {}
        for facet_index, facet in enumerate(facet_plan):
            cal = calibrations[facet_index]
            if cal.prepared:
                phase1_by_facet[facet] = cal.phase1
                probe_by_facet[facet] = cal.probe
                self._fixed_pass_by_facet[facet] = cal.fixed_pass_s
            dispatch.emit(_facet_prepared(cal, cache_hit=facet_index in hits))
        return phase1_by_facet, probe_by_facet

    def _execute(
        self,
        jobs: list[PairJob],
        payload: CampaignPayload,
        policy: SupervisionPolicy,
        guard: ShutdownGuard | None = None,
        on_result=None,
        on_retry=None,
    ) -> list[PairJobResult]:
        """Dispatch jobs as supervised units and collect their results.

        ``on_result`` (if given) fires on the driver as each unit's
        results land — the stream/fault hook.  ``on_retry`` fires when a
        failed unit is about to re-dispatch (the ``PairRetried`` feed).
        ``guard`` (if given) makes the dispatch loops drain gracefully
        once a shutdown signal arrives; the caller decides what an early
        return means.
        """
        if on_result is None:
            def on_result(results):  # noqa: ARG001 - deliberate no-op sink
                return None
        if not jobs:
            return []
        if self.pool is None and (self.workers == 1 or len(jobs) <= 1):
            units = [[job] for job in jobs]
            skeleton: dict = {}

            def measure(unit_jobs):
                fire_worker_faults(unit_jobs, payload, in_process=True)
                return [
                    run_pair_job(job, payload, skeleton)
                    for job in unit_jobs
                ]

            return run_units_inprocess(
                units, policy, guard, on_result, measure, on_retry=on_retry
            )

        # Straggler-aware dispatch: longest-expected pair first, so the
        # costliest job never starts last and the pool drains evenly.
        # Ordering cannot affect results (the merge is index-keyed).
        # Each facet gets the cost model built from *its own* probe
        # latencies — iteration times (and thus pair costs) respond to the
        # facet clock (the locked memory P-state of a grid, the locked SM
        # clock of a facet sweep), so ranking a k≥2-facet campaign with
        # the first facet's probes would misorder whole facets — plus the
        # facet's fixed per-pass duration, so cross-facet ordering stays
        # honest when locked-SM facets differ in iteration time.  The same
        # cost model feeds the supervision deadlines: a unit's timeout
        # scales with its expected cost.
        models: dict[float | None, ProbeCostModel] = {
            facet: ProbeCostModel(
                payload.probe_for(facet),
                fixed_pass_s=self._fixed_pass_by_facet.get(facet, 0.0),
            )
            for facet in {job.facet for job in jobs}
        }

        def job_cost(job: PairJob) -> float:
            return models[job.facet].cost(job.init_mhz, job.target_mhz)

        units = [
            [job]
            for job in sorted(jobs, key=lambda job: (-job_cost(job), job.index))
        ]
        costs = [sum(job_cost(job) for job in unit) for unit in units]
        if self.pool is not None:
            return self.pool.run_units(
                payload,
                units,
                policy=policy,
                costs=costs,
                guard=guard,
                on_result=on_result,
                on_retry=on_retry,
            )
        return run_units_pool(
            units,
            costs,
            policy,
            guard,
            on_result,
            workers=self.workers,
            fn=worker_run_unit,
            initializer=worker_init,
            initargs=(payload,),
            on_retry=on_retry,
        )

    # ------------------------------------------------------------------
    def run(self) -> CampaignResult:
        machine, config = self.machine, self.config
        journal: CampaignJournal | None = None
        loaded: dict = {}
        if self.journal_dir is not None:
            from repro.core.journal import campaign_synopsis

            fingerprint = campaign_fingerprint(config, machine.blueprint)
            journal = CampaignJournal.open(
                self.journal_dir,
                fingerprint,
                mode="serial" if self.workers is None else "engine",
                resume=self.resume,
                synopsis=campaign_synopsis(config, machine.blueprint),
            )
            if self.resume:
                loaded = journal.load()
        try:
            return self._run(journal, loaded)
        finally:
            if journal is not None:
                journal.close()

    def prepare(self, dispatch: StreamDispatcher, loaded=None) -> PreparedCampaign:
        """Calibrate, plan the grid, and emit every pre-dispatch event.

        The first stage of the prepare → dispatch → finish seam (see
        :class:`PreparedCampaign`): emits ``CampaignStarted``, runs the
        per-facet calibrations (``FacetPrepared``), plans the job grid
        (``PairSkipped`` for planned skips), replays journaled pairs
        (``loaded``) as synthetic events, and returns the carrier with
        the ``todo`` jobs an external dispatcher measures.  On the shared
        timeline it emits ``CampaignStarted`` only; the rest interleaves
        with measurement in :meth:`_run_shared_timeline`.
        """
        loaded = {} if loaded is None else loaded
        machine, config = self.machine, self.config
        shared = self.workers is None
        t_begin = machine.clock.now
        facet_plan = config.facet_plan()
        sm_facets = config.locked_sm_plan()

        bench = BenchContext(machine, config)
        if shared:
            # The shared timeline's wall clock starts once the driver's
            # runtime and management contexts are up (their setup
            # advances the clock).
            t_begin = machine.clock.now
        dispatch.emit(
            CampaignStarted(
                gpu_name=bench.device.spec.name,
                architecture=bench.device.spec.architecture,
                hostname=machine.hostname,
                device_index=config.device_index,
                frequencies=config.frequencies,
                axis=config.axis,
                facet_plan=facet_plan,
                n_pairs=len(config.pairs()),
                memory_frequencies=config.memory_frequencies,
                locked_sm_frequencies=sm_facets,
                mode="serial" if shared else "engine",
                resumed=bool(loaded),
            )
        )
        if shared:
            return PreparedCampaign(
                payload=None,
                jobs=[],
                skips=[],
                todo=[],
                t_begin=t_begin,
                sm_facets=sm_facets,
                bench=bench,
            )

        # Calibration (phase 1 + probe, per facet): the driver scheme for
        # single-facet campaigns (same machine, same draws as the shared
        # timeline), the replica scheme — parallelizable, cacheable —
        # for multi-facet campaigns.  See _calibrate_facets.
        # Cache eligibility is decided against the pre-bench clock: a
        # machine sitting at its blueprint start time is a fresh build
        # whose whole timeline is a pure function of (blueprint, config);
        # a reused machine mid-timeline (device sweeps) is not, so it
        # calibrates live.
        phase1_by_facet, probe_by_facet = self._calibrate_facets(
            bench,
            dispatch,
            fresh=(t_begin == machine.blueprint.start_time),
        )
        first = facet_plan[0]
        single_facet = facet_plan == (None,)
        payload = CampaignPayload(
            blueprint=machine.blueprint,
            config=config,
            phase1=phase1_by_facet.get(first),
            probe=probe_by_facet.get(first),
            epoch=machine.clock.now,
            phase1_by_memory=None if single_facet else phase1_by_facet,
            probe_by_memory=None if single_facet else probe_by_facet,
        )

        jobs, skips = self._build_jobs(phase1_by_facet)
        for index, pair in skips:
            dispatch.emit(PairSkipped(index=index, pair=pair))
        # Resume: journaled pairs replay as synthetic events before any
        # live measurement (their results are the only ones those grid
        # indices can ever produce — see the journal module docs); only
        # the remainder is dispatched.
        dispatch.emit_all(replay_events(loaded))
        todo = (
            jobs
            if not loaded
            else [job for job in jobs if job.index not in loaded]
        )
        # Per-index virtual cost, summed in index order by finish() so
        # the driver clock advance is bit-identical at any completion
        # order.  Prefilled with the replayed pairs.
        elapsed_by_index: dict[int, float] = {
            index: elapsed for index, (_, elapsed) in loaded.items()
        }
        return PreparedCampaign(
            payload=payload,
            jobs=jobs,
            skips=skips,
            todo=todo,
            elapsed_by_index=elapsed_by_index,
            t_begin=t_begin,
            sm_facets=sm_facets,
            bench=bench,
            n_loaded=len(loaded),
        )

    def job_cost(self, payload: CampaignPayload):
        """Expected-cost callable over this campaign's jobs.

        Built from each facet's own probe latencies plus its fixed
        per-pass duration (filled by :meth:`_calibrate_facets`) — the
        same model :meth:`_execute` ranks jobs with.  Exposed so
        external dispatchers (the service tier) can size shards and
        scheduler quanta consistently with engine dispatch.
        """
        models: dict = {}

        def cost(job: PairJob) -> float:
            model = models.get(job.facet)
            if model is None:
                model = models[job.facet] = ProbeCostModel(
                    payload.probe_for(job.facet),
                    fixed_pass_s=self._fixed_pass_by_facet.get(
                        job.facet, 0.0
                    ),
                )
            return model.cost(job.init_mhz, job.target_mhz)

        return cost

    def finish(
        self,
        prep: PreparedCampaign,
        dispatch: StreamDispatcher,
        accumulator: ResultAccumulator,
    ) -> CampaignResult:
        """Close the timeline and assemble the result (last seam stage).

        Sums every measured pair's virtual cost in grid-index order,
        advances the driver clock once, emits ``CampaignFinished``, and
        assembles the :class:`CampaignResult` from the accumulator —
        writing CSVs when the config asks for them.  The shared timeline
        measured on the driver machine itself, whose clock already stands
        at the end of the last pair, so it advances nothing here.
        """
        machine, config = self.machine, self.config
        total_elapsed = 0.0
        if self.workers is not None:
            for index in sorted(prep.elapsed_by_index):
                total_elapsed += prep.elapsed_by_index[index]
        if total_elapsed > 0.0:
            machine.clock.advance(total_elapsed)

        dispatch.emit(
            CampaignFinished(
                wall_virtual_s=machine.clock.now - prep.t_begin,
                locked_sm_mhz=(
                    None
                    if prep.sm_facets is not None
                    else config.swept_axis().locked_complement_mhz(prep.bench)
                ),
            )
        )
        result = accumulator.result()
        if config.output_dir is not None:
            write_campaign_csvs(config.output_dir, result)
        return result

    def _run(self, journal, loaded) -> CampaignResult:
        config = self.config
        accumulator = ResultAccumulator()
        dispatch = StreamDispatcher(
            accumulator,
            JournalSink(journal) if journal is not None else None,
            *self.sinks,
        )
        prep = self.prepare(dispatch, loaded)
        driver_plan = FaultPlan.parse(config.inject_faults)
        policy = SupervisionPolicy.from_config(config)
        supervised = journal is not None or driver_plan is not None
        merged_count = prep.n_loaded
        elapsed_by_index = prep.elapsed_by_index

        def on_result(unit_results) -> None:
            nonlocal merged_count
            for res in unit_results:
                elapsed_by_index[res.index] = res.elapsed_virtual_s
                dispatch.emit(
                    PairMeasured(
                        index=res.index,
                        pair=res.pair,
                        elapsed_virtual_s=res.elapsed_virtual_s,
                    )
                )
                merged_count += 1
                if driver_plan is not None:
                    driver_plan.fire_driver(merged_count)

        def on_retry(unit_jobs, attempts, cause) -> None:
            dispatch.emit(
                PairRetried(
                    indices=tuple(job.index for job in unit_jobs),
                    attempt=attempts,
                    cause=cause,
                )
            )

        guard = ShutdownGuard() if supervised else None
        with ExitStack() as stack:
            if guard is not None:
                stack.enter_context(guard)
            if self.workers is None:
                self._run_shared_timeline(prep, dispatch, guard, on_result)
            else:
                self._execute(
                    prep.todo,
                    prep.payload,
                    policy,
                    guard=guard,
                    on_result=on_result,
                    on_retry=on_retry,
                )
        if guard is not None and guard.requested:
            dispatch.interrupt()
            if self.workers is None:
                # Only a journal arms the guard on the shared timeline,
                # and that journal can never be resumed.
                message = (
                    f"serial campaign interrupted after {merged_count} "
                    "measured pairs; the journal holds every finished pair "
                    "(a durable record — serial campaigns cannot be "
                    "resumed, see the journal docs)"
                )
            else:
                hint = (
                    f"journal at {self.journal_dir} holds every finished "
                    "pair; rerun with --resume to continue"
                    if journal is not None
                    else "no journal attached, partial results were discarded"
                )
                message = (
                    f"campaign interrupted after {merged_count} of "
                    f"{len(prep.jobs)} measured pairs; {hint}"
                )
            raise CampaignInterrupted(message, journal_dir=self.journal_dir)
        return self.finish(prep, dispatch, accumulator)

    def _run_shared_timeline(
        self,
        prep: PreparedCampaign,
        dispatch: StreamDispatcher,
        guard: ShutdownGuard | None,
        on_result,
    ) -> None:
        """Calibrate and measure facet by facet on the driver machine.

        The dispatch stage of the shared timeline (``workers=None``).  Per
        facet, in facet order: calibrate on the driver
        (:meth:`_calibrate_on_driver`), emit ``FacetPrepared``, then walk
        the facet's grid points in flat index order.  Planned skips
        become ``PairSkipped``; every other point runs
        :func:`~repro.core.campaign.measure_pair` on the driver's own
        bench, so the clock and RNG advance in place and each pair starts
        from the machine state the previous one left behind.  ``guard``
        (if given) stops the walk before the next measured pair once a
        shutdown signal arrives; the caller decides what that means.
        """
        bench, clock = prep.bench, self.machine.clock
        for facet_index, facet in enumerate(self.config.facet_plan()):
            cal = self._calibrate_on_driver(bench, facet_index, facet)
            dispatch.emit(_facet_prepared(cal, cache_hit=False))
            for index, point in self._plan_facet(
                facet_index, facet, cal.phase1
            ):
                if not isinstance(point, PairJob):
                    dispatch.emit(PairSkipped(index=index, pair=point))
                    continue
                if guard is not None and guard.requested:
                    return
                t_pair = clock.now
                pair = measure_pair(
                    bench,
                    point.init_mhz,
                    point.target_mhz,
                    cal.phase1,
                    cal.probe,
                )
                pair.memory_mhz = point.memory_mhz
                pair.locked_sm_mhz = point.locked_sm_mhz
                on_result(
                    [
                        PairJobResult(
                            index=index,
                            pair=pair,
                            elapsed_virtual_s=clock.now - t_pair,
                        )
                    ]
                )


def run_campaign_parallel(
    machine: Machine,
    config: LatestConfig,
    workers: int | None = 1,
    pool=None,
    journal: "str | None" = None,
    resume: bool = False,
    sinks=(),
) -> CampaignResult:
    """Run a campaign through the execution engine (see module docs).

    ``workers=None`` runs the shared timeline on ``machine`` itself.
    """
    return CampaignExecutor(
        machine,
        config,
        workers=workers,
        pool=pool,
        journal=journal,
        resume=resume,
        sinks=sinks,
    ).run()
