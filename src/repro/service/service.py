"""The campaign service: submit / status / events / cancel on one loop.

:class:`CampaignService` is the long-lived front end over the batch
pipeline.  Each submitted :class:`~repro.service.requests.
CampaignRequest` becomes one campaign task on the event loop that walks
the engine's prepare → dispatch → finish seam
(:class:`~repro.exec.engine.PreparedCampaign`):

1. **Prepare** runs on the fleet's measurement thread (calibration is
   real simulation work; the loop never blocks): emits ``CampaignStarted``,
   ``FacetPrepared`` (through the shared calibration cache when one is
   configured), ``PairSkipped``, and journal replays.
2. **Dispatch**: the remaining jobs are cut into facet-homogeneous
   shards, costed with the engine's probe cost model, and submitted to
   the :class:`~repro.service.scheduler.FairShareScheduler` — the
   deficit-round-robin core multiplexes every live campaign's shards
   over the slots of one shared
   :class:`~repro.service.scheduler.WorkerFleet`, so concurrent tenants
   progress in proportion to their weights.  Each
   shard measures through the engine's supervised in-process unit path
   (:func:`~repro.exec.supervise.run_units_inprocess` over
   :func:`~repro.exec.worker.run_pair_job`), so retries and quarantine
   behave exactly as engine dispatch.
3. **Finish** (measurement thread again) sums virtual costs in
   grid-index order and assembles the
   :class:`~repro.core.results.CampaignResult`.

All three stages share the fleet's single measurement thread, so at most
one piece of CPU-bound service work runs at a time and the event loop
thread keeps only I/O and bookkeeping (event fan-out, journal appends,
status).  Measurement is interpreter-bound, so more threads would only
contend for the interpreter lock.

Because pair measurement is a pure function of ``(blueprint, config,
grid index)`` and the clock advance is index-ordered, *any*
interleaving of concurrent campaigns yields each campaign's exact
standalone result — CSV bytes and ``wall_virtual_s`` included.  That
bit-identity is the service's core invariant (pinned by
``tests/test_service.py``).

Durability: with a ``journal_root``, every campaign journals under
``<journal_root>/<campaign_id>/`` with its ``request.json`` beside it;
a finished campaign writes ``result.json``.  A service restarted over
the same root resumes every campaign that has a request but no result
— replaying journaled pairs and measuring only the rest, bit-identical
to the uninterrupted run (the journal fingerprint validates the
request → config mapping).
"""

from __future__ import annotations

import asyncio
import json
import os
from dataclasses import dataclass, field
from pathlib import Path

from repro.core.journal import CampaignJournal, JournalSink, campaign_fingerprint
from repro.core.results import ResultAccumulator
from repro.core.stream import (
    CampaignEvent,
    CampaignFinished,
    CampaignSink,
    PairMeasured,
    PairRetried,
    PairSkipped,
    StreamDispatcher,
)
from repro.errors import ServiceUnavailable
from repro.exec.engine import CampaignExecutor
from repro.exec.jobs import SupervisionPolicy
from repro.exec.supervise import run_units_inprocess
from repro.exec.worker import fire_worker_faults, run_pair_job
from repro.service.bridge import EventBroadcast, QueueBridgeSink
from repro.service.requests import CampaignRequest
from repro.service.scheduler import FairShareScheduler, WorkerFleet

__all__ = ["CampaignService", "CampaignStatus"]


@dataclass
class CampaignStatus:
    """One campaign's externally visible state snapshot."""

    campaign_id: str
    tenant: str
    #: ``queued`` → ``preparing`` → ``running`` → ``finishing`` →
    #: ``finished`` | ``cancelled`` | ``failed``
    state: str
    total_pairs: int = 0
    measured: int = 0
    skipped: int = 0
    replayed: int = 0
    retried: int = 0
    #: whether journaled pairs were replayed (restart recovery)
    resumed: bool = False
    #: set on ``finished``
    wall_virtual_s: float | None = None
    #: set on ``failed``
    error: str | None = None

    def to_wire(self) -> dict:
        """JSON-ready dict (the socket protocol's status payload)."""
        return {
            "campaign_id": self.campaign_id,
            "tenant": self.tenant,
            "state": self.state,
            "total_pairs": self.total_pairs,
            "measured": self.measured,
            "skipped": self.skipped,
            "replayed": self.replayed,
            "retried": self.retried,
            "resumed": self.resumed,
            "wall_virtual_s": self.wall_virtual_s,
            "error": self.error,
        }


class _CounterSink(CampaignSink):
    """Per-campaign progress counters, fed straight off the stream."""

    def __init__(self, record: "_Campaign") -> None:
        self.record = record

    def on_event(self, event: CampaignEvent) -> None:
        record = self.record
        if isinstance(event, PairMeasured):
            record.measured += 1
            if event.replayed:
                record.replayed += 1
        elif isinstance(event, PairSkipped):
            record.skipped += 1
        elif isinstance(event, PairRetried):
            record.retried += 1
        elif isinstance(event, CampaignFinished):
            record.wall_virtual_s = event.wall_virtual_s


@dataclass
class _Campaign:
    """Internal per-campaign record."""

    campaign_id: str
    request: CampaignRequest
    broadcast: EventBroadcast
    state: str = "queued"
    resumed: bool = False
    total_pairs: int = 0
    measured: int = 0
    skipped: int = 0
    replayed: int = 0
    retried: int = 0
    wall_virtual_s: float | None = None
    error: str | None = None
    result: object = None
    task: "asyncio.Task | None" = None
    cancel_requested: bool = False
    done: asyncio.Event = field(default_factory=asyncio.Event)

    def status(self) -> CampaignStatus:
        return CampaignStatus(
            campaign_id=self.campaign_id,
            tenant=self.request.tenant,
            state=self.state,
            total_pairs=self.total_pairs,
            measured=self.measured,
            skipped=self.skipped,
            replayed=self.replayed,
            retried=self.retried,
            resumed=self.resumed,
            wall_virtual_s=self.wall_virtual_s,
            error=self.error,
        )


def _atomic_json(path: Path, payload: dict) -> None:
    """Write-then-rename so a crash never leaves a truncated marker."""
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(json.dumps(payload, sort_keys=True))
    os.replace(tmp, path)


class CampaignService:
    """Multi-tenant campaign execution on one asyncio event loop.

    Parameters
    ----------
    fleet_size:
        Shard slots shared by every campaign: the scheduler's in-flight
        bound (the fair-share multiplexing width).  All slots feed the
        fleet's one measurement thread; a second slot keeps the next
        shard queued behind the running one.
    journal_root:
        Directory holding one journal per campaign.  Enables durable
        progress and :meth:`start`-time crash recovery; ``None`` runs
        campaigns in memory only.
    calibration_cache:
        One calibration cache directory shared across all tenants
        (each request may still override it in its own config).
    shard_pairs:
        Pair jobs per scheduler shard — the fair-share preemption
        granularity.  Smaller shards interleave tenants more finely at
        slightly more scheduling overhead; results are identical either
        way.
    """

    def __init__(
        self,
        fleet_size: int = 2,
        journal_root: "str | Path | None" = None,
        calibration_cache: "str | None" = None,
        shard_pairs: int = 4,
    ) -> None:
        self.fleet = WorkerFleet(fleet_size)
        self.scheduler = FairShareScheduler(self.fleet)
        self.journal_root = (
            None if journal_root is None else Path(journal_root)
        )
        self.calibration_cache = calibration_cache
        self.shard_pairs = max(1, int(shard_pairs))
        self._campaigns: dict[str, _Campaign] = {}
        self._tenant_active: dict[str, int] = {}
        self._draining = False
        self._stopped = False
        self._next_id = 1

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> list[str]:
        """Start dispatch and resume any journaled in-flight campaigns.

        Returns the ids of resumed campaigns.  A campaign directory is
        in-flight when it holds a ``request.json`` but no
        ``result.json`` — i.e. the previous service died (or was
        killed) before ``finish``; its journaled pairs replay and only
        the remainder is measured.
        """
        self.scheduler.start()
        resumed: list[str] = []
        if self.journal_root is not None and self.journal_root.is_dir():
            for entry in sorted(self.journal_root.iterdir()):
                request_file = entry / "request.json"
                if not request_file.is_file():
                    continue
                if (entry / "result.json").is_file():
                    continue
                request = CampaignRequest.from_json(
                    request_file.read_text()
                )
                campaign = self._admit(
                    request,
                    campaign_id=entry.name,
                    resume=(entry / "meta.json").is_file(),
                )
                resumed.append(campaign.campaign_id)
        return resumed

    async def drain(self) -> None:
        """Stop accepting submissions and wait for live campaigns."""
        self._draining = True
        await asyncio.gather(
            *(c.done.wait() for c in self._campaigns.values())
        )

    async def stop(self, drain: bool = True) -> None:
        """Shut down: optionally drain, else cancel, then stop workers."""
        self._draining = True
        if not drain:
            for campaign in list(self._campaigns.values()):
                if not campaign.done.is_set():
                    await self.cancel(campaign.campaign_id)
        await self.drain()
        await self.scheduler.close()
        self.fleet.close()
        self._stopped = True

    # ------------------------------------------------------------------
    # API
    # ------------------------------------------------------------------
    async def submit(self, request: CampaignRequest) -> str:
        """Accept one campaign; returns its id immediately."""
        if self._draining or self._stopped:
            raise ServiceUnavailable(
                "service is draining; new campaigns are not accepted"
            )
        campaign = self._admit(request)
        return campaign.campaign_id

    def status(self, campaign_id: "str | None" = None):
        """One campaign's status, or every campaign's (id order)."""
        if campaign_id is not None:
            return self._get(campaign_id).status()
        return [
            self._campaigns[cid].status()
            for cid in sorted(self._campaigns)
        ]

    def events(self, campaign_id: str):
        """Async iterator over the campaign's stream (history included)."""
        return self._get(campaign_id).broadcast.aiter()

    async def result(self, campaign_id: str):
        """Wait for the campaign and return its ``CampaignResult``.

        Raises the campaign's failure, or :class:`ServiceUnavailable`
        for a cancelled campaign (there is no result to return).
        """
        campaign = self._get(campaign_id)
        await campaign.done.wait()
        if campaign.state == "finished":
            return campaign.result
        if campaign.state == "failed":
            raise ServiceUnavailable(
                f"campaign {campaign_id} failed: {campaign.error}"
            )
        raise ServiceUnavailable(f"campaign {campaign_id} was cancelled")

    async def cancel(self, campaign_id: str) -> bool:
        """Request cancellation; waits for the campaign to wind down.

        Returns ``True`` if the campaign was cancelled, ``False`` if it
        had already reached a terminal state.  Cancellation is
        cooperative at shard granularity: in-flight shards finish on
        the measurement thread (their results are discarded), pending
        shards never run, and the journal keeps everything measured so
        far — a journaled cancelled campaign resumes on restart.
        """
        campaign = self._get(campaign_id)
        if campaign.done.is_set():
            return False
        campaign.cancel_requested = True
        await campaign.done.wait()
        return campaign.state == "cancelled"

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _get(self, campaign_id: str) -> _Campaign:
        campaign = self._campaigns.get(campaign_id)
        if campaign is None:
            raise ServiceUnavailable(f"unknown campaign {campaign_id!r}")
        return campaign

    def _new_id(self) -> str:
        while True:
            campaign_id = f"c{self._next_id:04d}"
            self._next_id += 1
            if campaign_id not in self._campaigns and not (
                self.journal_root is not None
                and (self.journal_root / campaign_id).exists()
            ):
                return campaign_id

    def _admit(
        self,
        request: CampaignRequest,
        campaign_id: "str | None" = None,
        resume: bool = False,
    ) -> _Campaign:
        if campaign_id is None:
            campaign_id = self._new_id()
        campaign = _Campaign(
            campaign_id=campaign_id,
            request=request,
            broadcast=EventBroadcast(asyncio.get_event_loop()),
        )
        self._campaigns[campaign_id] = campaign
        self._tenant_active[request.tenant] = (
            self._tenant_active.get(request.tenant, 0) + 1
        )
        self.scheduler.register(request.tenant, weight=request.weight)
        if self.journal_root is not None:
            directory = self.journal_root / campaign_id
            directory.mkdir(parents=True, exist_ok=True)
            _atomic_json(
                directory / "request.json",
                json.loads(request.to_json()),
            )
        campaign.task = asyncio.ensure_future(
            self._run_campaign(campaign, resume=resume)
        )
        return campaign

    def _build_shards(self, executor: CampaignExecutor, prep):
        """Facet-homogeneous job chunks + their cost-model costs."""
        cost_of = executor.job_cost(prep.payload)
        shards: list[list] = []
        run: list = []
        for job in prep.todo:
            if run and (
                job.facet != run[-1].facet
                or len(run) >= self.shard_pairs
            ):
                shards.append(run)
                run = []
            run.append(job)
        if run:
            shards.append(run)
        costs = [sum(cost_of(job) for job in shard) for shard in shards]
        return shards, costs

    async def _run_campaign(self, campaign: _Campaign, resume: bool) -> None:
        loop = asyncio.get_event_loop()
        request = campaign.request
        journal: CampaignJournal | None = None
        interrupted = False
        try:
            campaign.state = "preparing"
            campaign.resumed = resume

            def prepare_stage():
                """Machine build, journal open, engine prepare (on the fleet)."""
                machine = request.build_machine()
                config = request.build_config(
                    calibration_cache=self.calibration_cache
                )
                executor = CampaignExecutor(machine, config, workers=1)
                opened = None
                loaded: dict = {}
                if self.journal_root is not None:
                    from repro.core.journal import campaign_synopsis

                    opened = CampaignJournal.open(
                        self.journal_root / campaign.campaign_id,
                        campaign_fingerprint(config, machine.blueprint),
                        mode="engine",
                        resume=resume,
                        synopsis=campaign_synopsis(
                            config, machine.blueprint
                        ),
                    )
                    if resume:
                        loaded = opened.load()
                accumulator = ResultAccumulator()
                dispatch = StreamDispatcher(
                    accumulator,
                    JournalSink(opened) if opened is not None else None,
                    _CounterSink(campaign),
                    QueueBridgeSink(campaign.broadcast),
                )
                prep = executor.prepare(dispatch, loaded)
                return executor, opened, accumulator, dispatch, prep

            (
                executor,
                journal,
                accumulator,
                dispatch,
                prep,
            ) = await loop.run_in_executor(
                self.fleet.executor, prepare_stage
            )
            campaign.total_pairs = len(prep.jobs) + len(prep.skips)

            campaign.state = "running"
            policy = SupervisionPolicy.from_config(executor.config)
            payload = prep.payload
            #: per-campaign replica-skeleton cache, shared by this
            #: campaign's shards only (values are deterministic per key;
            #: the shards run one at a time on the measurement thread)
            skeleton: dict = {}

            def shard_fn(shard_jobs):
                def fn():
                    retries: list = []

                    def on_retry(unit_jobs, attempts, cause):
                        retries.append(
                            (
                                tuple(j.index for j in unit_jobs),
                                attempts,
                                cause,
                            )
                        )

                    def measure(unit_jobs):
                        fire_worker_faults(
                            unit_jobs, payload, in_process=True
                        )
                        return [
                            run_pair_job(job, payload, skeleton)
                            for job in unit_jobs
                        ]

                    results = run_units_inprocess(
                        [shard_jobs],
                        policy,
                        None,
                        lambda _results: None,
                        measure,
                        on_retry=on_retry,
                    )
                    return results, retries

                return fn

            shards, costs = self._build_shards(executor, prep)
            if shards:
                hint = sum(costs) / len(costs)
                self.scheduler.register(
                    request.tenant,
                    weight=request.weight,
                    quantum_hint=hint,
                )
            pending = {
                self.scheduler.submit(
                    request.tenant, cost, shard_fn(shard)
                )
                for shard, cost in zip(shards, costs)
            }
            while pending:
                if campaign.cancel_requested:
                    interrupted = True
                    break
                finished, pending = await asyncio.wait(
                    pending,
                    timeout=0.05,
                    return_when=asyncio.FIRST_COMPLETED,
                )
                for future in finished:
                    results, retries = future.result()
                    for indices, attempt, cause in retries:
                        dispatch.emit(
                            PairRetried(
                                indices=indices,
                                attempt=attempt,
                                cause=cause,
                            )
                        )
                    for res in results:
                        prep.elapsed_by_index[res.index] = (
                            res.elapsed_virtual_s
                        )
                        dispatch.emit(
                            PairMeasured(
                                index=res.index,
                                pair=res.pair,
                                elapsed_virtual_s=res.elapsed_virtual_s,
                            )
                        )
            if campaign.cancel_requested:
                # Covers a cancel that landed during prepare (or between
                # the last shard and finish) as well as mid-dispatch.
                interrupted = True
            if interrupted:
                # Cooperative cancel: pending shards never run; shards
                # already handed to the measurement thread finish there
                # but their results are dropped (the journal only holds
                # pairs whose events were emitted — resume re-measures
                # the rest bit-identically).
                for future in pending:
                    future.cancel()
                dispatch.interrupt()
                campaign.state = "cancelled"
                return

            campaign.state = "finishing"
            campaign.result = await loop.run_in_executor(
                self.fleet.executor,
                lambda: executor.finish(prep, dispatch, accumulator),
            )
            if self.journal_root is not None:
                _atomic_json(
                    self.journal_root / campaign.campaign_id / "result.json",
                    {
                        "campaign_id": campaign.campaign_id,
                        "tenant": request.tenant,
                        "wall_virtual_s": campaign.result.wall_virtual_s,
                        "n_pairs": len(campaign.result.pairs),
                    },
                )
            campaign.state = "finished"
        except Exception as exc:
            campaign.state = "failed"
            campaign.error = f"{type(exc).__name__}: {exc}"
            interrupted = True
        finally:
            if journal is not None:
                journal.close()
            campaign.broadcast.close(interrupted=interrupted)
            remaining = self._tenant_active.get(request.tenant, 1) - 1
            if remaining <= 0:
                self._tenant_active.pop(request.tenant, None)
                self.scheduler.unregister(request.tenant)
            else:
                self._tenant_active[request.tenant] = remaining
            campaign.done.set()
