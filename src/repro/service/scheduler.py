"""Fair-share scheduling: deficit round robin over one worker fleet.

Two layers, deliberately separated:

:class:`DeficitRoundRobin`
    The pure, synchronous scheduling core — no asyncio, no threads, no
    clocks.  Tenant queues hold :class:`Shard`\\ s (cost-weighted work
    units); each round-robin visit grants a queue ``quantum × weight``
    of deficit credit, a shard dispatches when its cost fits the
    accumulated deficit, and unspent deficit carries over — the classic
    DRR guarantee that a queue's long-run share of dispatched cost is
    proportional to its weight while no queue ever starves (every visit
    strictly grows the deficit until the head shard fits).  Being pure,
    its exact dispatch order is a deterministic function of the
    push/next call sequence — which is what the scheduler unit tests
    pin, hypothesis sweeps included.

:class:`FairShareScheduler`
    The asyncio wrapper: an event-loop dispatch task that waits for a
    fleet slot (:class:`WorkerFleet`), asks the DRR core which shard
    goes next, and hands the shard's callable to the fleet's one
    measurement thread — so scheduling decisions happen at slot-grant
    time, under whatever mix of campaigns is queued *then*, while the
    event loop never blocks on measurement work.

Quanta are sized from the engine's probe cost model: each campaign
registers the mean expected cost of its shards as a *quantum hint*, and
the effective quantum is the largest hint among active queues — so one
visit grants roughly "one typical shard" of credit and a heavy-shard
campaign cannot wedge behind a deficit that grows in microscopic steps.
"""

from __future__ import annotations

import asyncio
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable

from repro.errors import ConfigError

__all__ = [
    "DeficitRoundRobin",
    "FairShareScheduler",
    "Shard",
    "WorkerFleet",
]


@dataclass
class Shard:
    """One cost-weighted unit of schedulable work.

    The service builds shards as facet-homogeneous chunks of a
    campaign's :class:`~repro.exec.jobs.PairJob` grid; ``fn`` measures
    the chunk (on the fleet's measurement thread) and returns its
    results.  The DRR core only reads ``queue`` and ``cost``.
    """

    #: tenant queue the shard bills against
    queue: str
    #: expected virtual cost (probe cost model), the DRR currency
    cost: float
    #: the work itself, run on the measurement thread (``None`` in pure
    #: tests)
    fn: Callable | None = None
    #: submission sequence number (stable ordering/debugging aid)
    seq: int = 0
    #: resolved with ``fn``'s return value by the async scheduler
    future: "asyncio.Future | None" = None


@dataclass
class _TenantQueue:
    weight: float
    quantum_hint: float = 0.0
    deficit: float = 0.0
    #: whether this round's visit credit was already granted
    credited: bool = False
    items: deque = field(default_factory=deque)


class DeficitRoundRobin:
    """The pure DRR core: ``add_queue`` / ``push`` / ``next``.

    Not thread-safe by design — the async wrapper only calls it from
    the event loop, and tests drive it synchronously.
    """

    def __init__(self) -> None:
        self._queues: dict[str, _TenantQueue] = {}
        #: visit order; holds exactly the keys of non-empty queues
        self._ring: deque[str] = deque()

    # ------------------------------------------------------------------
    def add_queue(
        self, key: str, weight: float = 1.0, quantum_hint: float = 0.0
    ) -> None:
        """Register a tenant queue (idempotent; updates weight/hint)."""
        if not weight > 0:
            raise ConfigError(f"queue weight must be > 0, got {weight}")
        queue = self._queues.get(key)
        if queue is None:
            self._queues[key] = _TenantQueue(
                weight=weight, quantum_hint=float(quantum_hint)
            )
        else:
            queue.weight = weight
            queue.quantum_hint = max(
                queue.quantum_hint, float(quantum_hint)
            )

    def remove_queue(self, key: str) -> list[Shard]:
        """Drop a queue; returns (and discards) its pending shards."""
        queue = self._queues.pop(key, None)
        if queue is None:
            return []
        try:
            self._ring.remove(key)
        except ValueError:
            pass
        return list(queue.items)

    def push(self, shard: Shard) -> None:
        """Enqueue one shard on its tenant queue."""
        queue = self._queues.get(shard.queue)
        if queue is None:
            raise ConfigError(
                f"push to unregistered queue {shard.queue!r}"
            )
        if not queue.items:
            self._ring.append(shard.queue)
        queue.items.append(shard)

    # ------------------------------------------------------------------
    @property
    def pending(self) -> int:
        """Shards waiting across all queues."""
        return sum(len(q.items) for q in self._queues.values())

    def quantum(self) -> float:
        """Visit credit unit: the largest active quantum hint (min 1)."""
        hints = [
            q.quantum_hint for q in self._queues.values() if q.items
        ]
        best = max(hints, default=0.0)
        return best if best > 0.0 else 1.0

    def next(self) -> Shard | None:
        """Dispatch the next shard under DRR, or ``None`` when idle.

        Starvation-free: a queue whose head shard exceeds its deficit
        rotates to the back with the deficit *kept*, and every revisit
        grants another ``quantum × weight`` — the head fits after at
        most ``ceil(cost / (quantum × weight))`` visits.
        """
        while self._ring:
            key = self._ring[0]
            queue = self._queues[key]
            if not queue.items:  # emptied by remove/drain bookkeeping
                self._ring.popleft()
                queue.deficit = 0.0
                queue.credited = False
                continue
            if not queue.credited:
                queue.deficit += self.quantum() * queue.weight
                queue.credited = True
            if queue.items[0].cost <= queue.deficit:
                shard = queue.items.popleft()
                queue.deficit -= shard.cost
                if not queue.items:
                    # Classic DRR: an emptied queue forfeits leftover
                    # deficit (no banking credit while idle).
                    self._ring.popleft()
                    queue.deficit = 0.0
                    queue.credited = False
                return shard
            self._ring.rotate(-1)
            queue.credited = False
        return None


class WorkerFleet:
    """The shared measurement fleet: ``slots`` shard slots, one thread.

    Measurement is interpreter-bound Python plus small NumPy calls, so
    two threads only contend for the interpreter lock: on a 2-CPU host a
    second thread made the same service work take 10–25% more wall time
    and 30–45% more CPU.  Every piece of CPU-bound service work — campaign
    prepare, every shard, campaign finish — therefore runs on the one
    ``repro-fleet`` thread behind :attr:`executor`, in submission
    (FIFO) order.

    ``slots`` is the scheduler's in-flight shard bound.  A shard granted
    a slot while the thread is busy waits in the thread's queue; the
    DRR decision was already made at grant time.  A second slot keeps
    the next shard on deck, so the thread does not idle while the event
    loop is busy (a journal fsync, say).
    """

    def __init__(self, slots: int = 2) -> None:
        if slots < 1:
            raise ConfigError(f"fleet needs >= 1 slot, got {slots}")
        self.slots = slots
        self.executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-fleet"
        )

    def close(self) -> None:
        """Shut the thread down, waiting for queued and in-flight work."""
        self.executor.shutdown(wait=True)


class FairShareScheduler:
    """Asyncio dispatch loop over the DRR core and one worker fleet.

    Usage: ``register`` each campaign's queue, ``submit`` its shards
    (each returns a future resolved with the shard ``fn``'s return
    value), ``unregister`` on completion or cancellation.  ``start``
    launches the dispatch task; ``close`` drains it.
    """

    def __init__(self, fleet: WorkerFleet) -> None:
        self.fleet = fleet
        self._drr = DeficitRoundRobin()
        self._slots = asyncio.Semaphore(fleet.slots)
        self._wakeup = asyncio.Event()
        self._closed = False
        self._seq = 0
        self._task: asyncio.Task | None = None
        self._running: set[asyncio.Task] = set()

    # ------------------------------------------------------------------
    def start(self) -> None:
        """Launch the dispatch task on the running loop."""
        if self._task is None:
            self._task = asyncio.ensure_future(self._dispatch())

    def register(
        self, queue: str, weight: float = 1.0, quantum_hint: float = 0.0
    ) -> None:
        """Add (or re-weight) a tenant queue."""
        self._drr.add_queue(queue, weight=weight, quantum_hint=quantum_hint)

    def unregister(self, queue: str) -> int:
        """Drop a queue; cancels its pending shard futures."""
        dropped = self._drr.remove_queue(queue)
        for shard in dropped:
            if shard.future is not None and not shard.future.done():
                shard.future.cancel()
        return len(dropped)

    def submit(self, queue: str, cost: float, fn) -> "asyncio.Future":
        """Enqueue one shard; the future resolves with ``fn()``."""
        if self._closed:
            raise ConfigError("scheduler is closed")
        self._seq += 1
        shard = Shard(
            queue=queue,
            cost=cost,
            fn=fn,
            seq=self._seq,
            future=asyncio.get_event_loop().create_future(),
        )
        self._drr.push(shard)
        self._wakeup.set()
        return shard.future

    async def close(self) -> None:
        """Stop dispatching and wait for in-flight shards."""
        self._closed = True
        self._wakeup.set()
        if self._task is not None:
            await self._task
            self._task = None
        if self._running:
            await asyncio.gather(*self._running, return_exceptions=True)

    # ------------------------------------------------------------------
    async def _dispatch(self) -> None:
        while True:
            if self._drr.pending == 0:
                if self._closed:
                    return
                self._wakeup.clear()
                await self._wakeup.wait()
                continue
            # Acquire the slot *before* selecting, so the DRR decision
            # reflects whatever is queued at the moment a worker frees
            # up — that is the fairness point of the whole design.
            await self._slots.acquire()
            shard = self._drr.next()
            if shard is None or (
                shard.future is not None and shard.future.cancelled()
            ):
                self._slots.release()
                continue
            task = asyncio.ensure_future(self._run(shard))
            self._running.add(task)
            task.add_done_callback(self._running.discard)

    async def _run(self, shard: Shard) -> None:
        loop = asyncio.get_event_loop()
        try:
            result = await loop.run_in_executor(
                self.fleet.executor, shard.fn
            )
        except Exception as exc:  # propagate through the shard future
            if shard.future is not None and not shard.future.cancelled():
                shard.future.set_exception(exc)
            else:  # pragma: no cover - cancelled mid-flight
                pass
        else:
            if shard.future is not None and not shard.future.cancelled():
                shard.future.set_result(result)
        finally:
            self._slots.release()
