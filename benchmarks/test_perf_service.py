"""Service front-end overhead: the asyncio event bridge, measured.

The service republishes every campaign event from the emitting worker
thread onto the event loop (``EventBroadcast.publish`` →
``call_soon_threadsafe`` → subscriber queues).  This benchmark records
what that bridge sustains in events/s against the baseline every other
tier uses — a direct synchronous ``on_event`` call — plus the
end-to-end wall-clock cost of running one campaign through
:class:`~repro.service.service.CampaignService` versus the engine it
wraps.  Rows land in ``BENCH_campaign.json`` under
``service_event_bridge``.

``test_service_fleet_slots_gate`` gates a ratio that holds on any host:
the same four campaigns through a ``fleet_size=2`` service may take at
most ``_MAX_FLEET2_VS_FLEET1`` times the wall of a ``fleet_size=1``
service from the same run (both best-of-``_FLEET_REPEATS``).  Every
slot feeds one measurement thread, so a second slot must not cost the
interpreter-lock contention a second thread would.  The ratio lands in
``BENCH_campaign.json`` under ``service_fleet_gate``.
"""

from __future__ import annotations

import asyncio
import time

from benchmarks.conftest import update_bench_json
from repro import LatestConfig, make_machine, run_campaign
from repro.core.stream import PairRetried, RecordingSink
from repro.service.bridge import EventBroadcast
from repro.service.requests import CampaignRequest
from repro.service.service import CampaignService

N_EVENTS = 50_000
#: relative gate: fleet_size=2 wall / fleet_size=1 wall, same run and host
_MAX_FLEET2_VS_FLEET1 = 1.10
_FLEET_REPEATS = 3
#: the gate's campaigns: the service tests' small fidelity on the memory
#: axis (two locked SM clocks, 12 pairs), where measurement is dominated
#: by small interpreter-bound steps
_SMALL_MEMORY_CONFIG = dict(
    frequencies=[1215.0, 810.0, 405.0],
    axis="memory",
    locked_sm_mhz=[1095.0, 1410.0],
    record_sm_count=4,
    min_measurements=4,
    max_measurements=8,
    rse_check_every=2,
    warmup_kernels=1,
    warmup_kernel_duration_s=0.05,
    measure_kernel_duration_s=0.08,
    delay_iterations=150,
    confirm_iterations=150,
    probe_window_s=0.4,
    settle_chunk_s=0.08,
)

#: one small A100 campaign, shared by the wall-clock comparison
_CONFIG = dict(
    frequencies=(705.0, 1095.0, 1410.0),
    record_sm_count=8,
    min_measurements=10,
    max_measurements=16,
    rse_check_every=4,
)


def _direct_events_per_s() -> float:
    """Baseline: synchronous sink delivery on the emitting thread."""
    sink = RecordingSink()
    event = PairRetried(indices=(0,), attempt=1, cause="bench")
    begin = time.perf_counter()
    for _ in range(N_EVENTS):
        sink.on_event(event)
    elapsed = time.perf_counter() - begin
    assert len(sink.events) == N_EVENTS
    return N_EVENTS / elapsed


def _bridge_events_per_s() -> float:
    """Thread → loop → subscriber, the service's delivery path."""
    event = PairRetried(indices=(0,), attempt=1, cause="bench")

    async def main() -> float:
        loop = asyncio.get_event_loop()
        broadcast = EventBroadcast(loop)
        queue = broadcast.subscribe()

        def produce():
            for _ in range(N_EVENTS):
                broadcast.publish(event)
            broadcast.close()

        begin = time.perf_counter()
        producer = loop.run_in_executor(None, produce)
        received = 0
        while await queue.get() is not None:
            received += 1
        elapsed = time.perf_counter() - begin
        await producer
        assert received == N_EVENTS
        return N_EVENTS / elapsed

    return asyncio.run(main())


def test_service_event_bridge_overhead():
    """Record bridge vs direct events/s and service vs engine wall."""
    direct = _direct_events_per_s()
    bridge = _bridge_events_per_s()

    begin = time.perf_counter()
    engine_result = run_campaign(
        make_machine("A100", seed=4), LatestConfig(**_CONFIG), workers=1
    )
    engine_wall = time.perf_counter() - begin

    async def service_run():
        service = CampaignService(fleet_size=2, shard_pairs=2)
        await service.start()
        campaign_id = await service.submit(
            CampaignRequest(
                seed=4,
                config={
                    k: list(v) if isinstance(v, tuple) else v
                    for k, v in _CONFIG.items()
                },
            )
        )
        result = await service.result(campaign_id)
        await service.stop()
        return result

    begin = time.perf_counter()
    service_result = asyncio.run(service_run())
    service_wall = time.perf_counter() - begin

    # the front end must not change the measurements
    assert service_result.wall_virtual_s == engine_result.wall_virtual_s

    update_bench_json(
        {
            "service_event_bridge": {
                "n_events": N_EVENTS,
                "direct_sink_events_per_s": round(direct),
                "asyncio_bridge_events_per_s": round(bridge),
                "bridge_slowdown_x": round(direct / bridge, 2),
                "campaign_engine_wall_s": round(engine_wall, 3),
                "campaign_service_wall_s": round(service_wall, 3),
                "service_overhead_pct": round(
                    100.0 * (service_wall / engine_wall - 1.0), 2
                ),
                "note": "bridge = EventBroadcast.publish from a worker "
                "thread through call_soon_threadsafe to one subscriber "
                "queue; direct = synchronous RecordingSink.on_event. "
                "Campaign walls compare one 6-pair A100 campaign "
                "(engine workers=1 vs CampaignService fleet=2).",
            }
        }
    )


def _service_wall(fleet_size: int) -> tuple[float, list[float]]:
    """Wall seconds for four small campaigns of two tenants on one service."""

    async def main():
        service = CampaignService(fleet_size=fleet_size, shard_pairs=2)
        await service.start()
        ids = [
            await service.submit(
                CampaignRequest(
                    tenant=f"tenant{seed % 2}",
                    seed=seed,
                    config=dict(_SMALL_MEMORY_CONFIG),
                )
            )
            for seed in (4, 5, 6, 7)
        ]
        results = await asyncio.gather(*(service.result(i) for i in ids))
        await service.stop()
        return [result.wall_virtual_s for result in results]

    begin = time.perf_counter()
    virtual = asyncio.run(main())
    return time.perf_counter() - begin, virtual


def test_service_fleet_slots_gate():
    """A second fleet slot must not slow the service down."""
    _service_wall(1)  # warm-up: first-use imports and caches, untimed
    walls: dict[int, list[float]] = {1: [], 2: []}
    virtual: dict[int, list[float]] = {}
    for _ in range(_FLEET_REPEATS):
        for fleet_size in (1, 2):
            wall, virtual[fleet_size] = _service_wall(fleet_size)
            walls[fleet_size].append(wall)
    # slot count never changes the measurements
    assert virtual[1] == virtual[2]
    best1, best2 = min(walls[1]), min(walls[2])
    ratio = best2 / best1
    update_bench_json(
        {
            "service_fleet_gate": {
                "fleet_1_wall_s": round(best1, 3),
                "fleet_2_wall_s": round(best2, 3),
                "fleet_2_over_fleet_1": round(ratio, 3),
                "max_ratio": _MAX_FLEET2_VS_FLEET1,
                "repeats": _FLEET_REPEATS,
                "note": "four 12-pair memory-axis A100 campaigns (service "
                "test fidelity) from two tenants on one CampaignService "
                "(shard_pairs=2); best-of-repeats wall at fleet_size=1 and "
                "fleet_size=2, interleaved in one run after one warm-up",
            }
        }
    )
    assert ratio <= _MAX_FLEET2_VS_FLEET1, (
        f"fleet_size=2 wall {best2:.3f} s exceeds {_MAX_FLEET2_VS_FLEET1}x "
        f"the fleet_size=1 wall {best1:.3f} s"
    )
