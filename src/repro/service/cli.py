"""The ``repro`` console entry point: campaign service operations.

Subcommands (one service verb each — see ``docs/cli.md`` for the full
flag reference and ``docs/service.md`` for semantics):

``repro serve``
    Run the campaign service on a unix socket until SIGINT/SIGTERM,
    then drain gracefully.  With ``--journal-root``, in-flight
    campaigns found under the root are resumed before the socket opens.
``repro submit``
    Submit one campaign over the socket; prints its id.  With
    ``--wait``, follows the event stream and exits when the campaign
    ends (exit code 3 if it failed or was cancelled).
``repro status``
    Print one campaign's status (or all of them) as JSON.
``repro events``
    Stream a campaign's wire events to stdout, one JSON line each.
``repro cancel``
    Cancel a campaign; prints whether it was cancelled.

The measurement flags of ``repro submit`` mirror ``latest-bench``
(same names, same semantics); the service always executes through the
engine tier, so results are bit-identical to ``latest-bench
--workers 1`` with the same parameters.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import signal
import sys

from repro.cli import parse_frequencies
from repro.errors import ReproError
from repro.service.client import SocketClient
from repro.service.requests import CampaignRequest
from repro.service.server import ServiceServer
from repro.service.service import CampaignService

__all__ = ["build_parser", "main"]

_DEFAULT_SOCKET = "repro-service.sock"


def _add_socket(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--socket",
        default=_DEFAULT_SOCKET,
        metavar="PATH",
        help=f"service unix-socket path (default {_DEFAULT_SOCKET})",
    )


def build_parser() -> argparse.ArgumentParser:
    """The ``repro`` argument parser (docs/cli.md is checked against it)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Campaign-as-a-service front end for the LATEST "
        "reproduction: run a fair-share campaign service and drive it.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    serve = sub.add_parser(
        "serve",
        help="run the campaign service until SIGINT/SIGTERM",
    )
    _add_socket(serve)
    serve.add_argument(
        "--fleet",
        type=int,
        default=2,
        metavar="N",
        help="shard slots shared by all campaigns: the in-flight bound; "
        "every shard runs on the one measurement thread (default 2)",
    )
    serve.add_argument(
        "--journal-root",
        default=None,
        metavar="DIR",
        help="directory holding one durable journal per campaign; "
        "in-flight campaigns found here are resumed at startup",
    )
    serve.add_argument(
        "--calibration-cache",
        default=None,
        metavar="DIR",
        help="calibration cache directory shared across all tenants",
    )
    serve.add_argument(
        "--shard-pairs",
        type=int,
        default=4,
        metavar="N",
        help="pair jobs per fair-share scheduler shard (default 4); "
        "results are identical for every value",
    )

    submit = sub.add_parser(
        "submit", help="submit one campaign to a running service"
    )
    _add_socket(submit)
    submit.add_argument(
        "frequencies",
        help="comma-separated swept-axis values (SM MHz by default, "
        "memory MHz with --axis memory, W with --axis power)",
    )
    submit.add_argument(
        "--axis",
        choices=("sm", "memory", "power"),
        default="sm",
        help="actuator to sweep (default sm)",
    )
    submit.add_argument(
        "--locked-sm",
        default=None,
        metavar="MHZ[,MHZ...]",
        help="locked SM clock(s) for memory/power-axis campaigns",
    )
    submit.add_argument(
        "--memory-frequencies",
        default=None,
        metavar="LIST",
        help="memory clocks for a core×memory grid (--axis sm only)",
    )
    submit.add_argument(
        "--tenant",
        default="default",
        help="fair-share tenant queue (default 'default')",
    )
    submit.add_argument(
        "--weight",
        type=float,
        default=1.0,
        help="tenant fair-share weight (default 1.0)",
    )
    submit.add_argument(
        "--gpu-model",
        default="A100",
        help="A100 | GH200 | RTX6000 (default A100)",
    )
    submit.add_argument(
        "--n-gpus", type=int, default=1, help="GPUs on the simulated node"
    )
    submit.add_argument(
        "--seed", type=int, default=0, help="simulation seed"
    )
    submit.add_argument(
        "--hostname", default="simnode01", help="simulated hostname"
    )
    submit.add_argument(
        "--device", type=int, default=0, help="GPU index (default 0)"
    )
    submit.add_argument(
        "--sm-count",
        type=int,
        default=None,
        help="SMs recorded by the benchmark kernel (default: all)",
    )
    submit.add_argument(
        "--rse",
        type=float,
        default=0.05,
        help="relative standard error stop threshold (default 0.05)",
    )
    submit.add_argument(
        "--min-measurements",
        type=int,
        default=25,
        help="measurements collected before RSE checks start",
    )
    submit.add_argument(
        "--max-measurements",
        type=int,
        default=200,
        help="hard per-pair measurement cap",
    )
    submit.add_argument(
        "--output-dir",
        default=None,
        help="directory the service writes the campaign's CSVs to",
    )
    submit.add_argument(
        "--wait",
        action="store_true",
        help="follow the event stream and exit when the campaign ends",
    )

    status = sub.add_parser("status", help="print campaign status as JSON")
    _add_socket(status)
    status.add_argument(
        "campaign_id",
        nargs="?",
        default=None,
        help="campaign id (omit for all campaigns)",
    )

    events = sub.add_parser(
        "events", help="stream a campaign's events as JSON lines"
    )
    _add_socket(events)
    events.add_argument("campaign_id", help="campaign id")

    cancel = sub.add_parser("cancel", help="cancel a campaign")
    _add_socket(cancel)
    cancel.add_argument("campaign_id", help="campaign id")

    return parser


def _request_from_args(args: argparse.Namespace) -> CampaignRequest:
    """Mirror the latest-bench axis/frequency mapping into a request."""
    axis = {"sm": "sm_core", "memory": "memory", "power": "power"}[args.axis]
    label = {
        "sm_core": "frequency",
        "memory": "memory frequency",
        "power": "power limit",
    }[axis]
    freqs = parse_frequencies(args.frequencies, label=label)
    if args.locked_sm is not None and axis == "sm_core":
        raise SystemExit("--locked-sm only applies to --axis memory/power")
    if args.memory_frequencies is not None and axis != "sm_core":
        raise SystemExit("--memory-frequencies only applies to --axis sm")
    config: dict = {"frequencies": list(freqs), "axis": axis}
    if args.locked_sm is not None:
        plan = parse_frequencies(args.locked_sm, minimum=1, label="locked-SM")
        config["locked_sm_mhz"] = plan[0] if len(plan) == 1 else list(plan)
    if args.memory_frequencies is not None:
        config["memory_frequencies"] = list(
            parse_frequencies(
                args.memory_frequencies, minimum=1, label="memory frequency"
            )
        )
    config["device_index"] = args.device
    config["rse_threshold"] = args.rse
    config["min_measurements"] = args.min_measurements
    config["max_measurements"] = args.max_measurements
    if args.sm_count is not None:
        config["record_sm_count"] = args.sm_count
    if args.output_dir is not None:
        config["output_dir"] = args.output_dir
    return CampaignRequest(
        tenant=args.tenant,
        weight=args.weight,
        gpu_model=args.gpu_model,
        n_gpus=args.n_gpus,
        seed=args.seed,
        hostname=args.hostname,
        config=config,
    )


async def _serve(args: argparse.Namespace) -> int:
    service = CampaignService(
        fleet_size=args.fleet,
        journal_root=args.journal_root,
        calibration_cache=args.calibration_cache,
        shard_pairs=args.shard_pairs,
    )
    resumed = await service.start()
    for campaign_id in resumed:
        print(f"resuming {campaign_id}", file=sys.stderr)
    server = ServiceServer(service, args.socket)
    await server.start()
    print(f"repro service listening on {args.socket}", file=sys.stderr)
    stop = asyncio.Event()
    loop = asyncio.get_event_loop()
    for sig in (signal.SIGINT, signal.SIGTERM):
        loop.add_signal_handler(sig, stop.set)
    await stop.wait()
    print("draining campaigns...", file=sys.stderr)
    await server.close()
    await service.stop(drain=True)
    return 0


async def _submit(args: argparse.Namespace) -> int:
    client = SocketClient(args.socket)
    campaign_id = await client.submit(_request_from_args(args))
    print(campaign_id)
    if not args.wait:
        return 0
    finished = False
    async for event in client.events(campaign_id):
        print(json.dumps(event))
        if event.get("type") == "campaign_finished":
            finished = True
    return 0 if finished else 3


async def _status(args: argparse.Namespace) -> int:
    client = SocketClient(args.socket)
    print(json.dumps(await client.status(args.campaign_id), indent=2))
    return 0


async def _events(args: argparse.Namespace) -> int:
    client = SocketClient(args.socket)
    async for event in client.events(args.campaign_id):
        print(json.dumps(event))
    return 0


async def _cancel(args: argparse.Namespace) -> int:
    client = SocketClient(args.socket)
    cancelled = await client.cancel(args.campaign_id)
    print("cancelled" if cancelled else "already finished")
    return 0


def main(argv: "list[str] | None" = None) -> int:
    """Entry point of the ``repro`` console script."""
    args = build_parser().parse_args(argv)
    handler = {
        "serve": _serve,
        "submit": _submit,
        "status": _status,
        "events": _events,
        "cancel": _cancel,
    }[args.command]
    try:
        return asyncio.run(handler(args))
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ConnectionRefusedError, FileNotFoundError):
        print(
            f"error: no service listening on {args.socket} "
            "(start one with: repro serve)",
            file=sys.stderr,
        )
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
