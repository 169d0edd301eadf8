"""Durable campaign journal: crash-safe partial results, verifiable resume.

Long campaigns (thousand-pair core×memory grids, soak sweeps) must not
lose every measured :class:`~repro.core.results.PairResult` to one worker
crash or Ctrl-C.  This module is the durability substrate underneath
:mod:`repro.exec.engine`, in engine mode and on the shared timeline
alike: an **append-only on-disk
ledger** that records each completed pair result the moment it lands on
the driver, keyed by a **campaign fingerprint** so a resumed run can
prove it continues *the same* campaign.

Why resume preserves bit-identity
---------------------------------
The execution engine measures every pair on a blueprint-replica machine
whose seed stream derives only from the campaign seed and the pair's grid
index (:func:`repro.exec.jobs.pair_seed_sequence`) — never from execution
order, worker count, or wall-clock time.  A journaled pair result is
therefore *the* result that pair can ever have under its fingerprint;
skipping it on resume and merging the stored record is indistinguishable
from re-measuring it.  Phase 1 and the probe stage re-run deterministically
on the resumed driver machine (same draws, same virtual-clock advance), so
the reconstructed :class:`~repro.core.results.CampaignResult` — CSV bytes
and ``wall_virtual_s`` included — equals an uninterrupted run's.

The shared timeline (``workers=None``, journal mode ``"serial"``)
*records* into a journal just as durably, but can never be resumed
bit-identically: its pairs share one clock/RNG stream, so pair k's draws
depend on the machine state pair k-1 left behind, and that state exists
only in the process that measured pair k-1.  Resume therefore requires
the engine execution model; a serial-mode journal is a durable partial
record, and resuming it raises :class:`~repro.errors.JournalModeError`
(the CLI then prints the engine-mode command to re-run with).

On-disk format
--------------
``<dir>/meta.json``
    Written once at journal creation: format version, the campaign
    fingerprint, the execution mode (``"engine"`` / ``"serial"``) and a
    human-readable campaign synopsis.
``<dir>/pairs.log``
    Append-only framed records.  Each frame is an 8-byte header
    (``<II``: payload length, CRC32) followed by a pickled
    ``(index, elapsed_virtual_s, PairResult)`` tuple.  Appends are
    flushed and fsync'd per record, so even a SIGKILL mid-campaign loses
    at most the in-flight pairs; a torn tail frame (crash mid-write) is
    detected by length/CRC and ignored on load.

The fingerprint covers every result-affecting configuration field plus
the machine blueprint (architecture, seed, hostname, thermal setup, ...).
Fields that provably cannot change results are excluded so a resume may
legitimately vary them: ``output_dir``, fault injection, the supervision
knobs (timeouts/retries/backoff), and the ``pass_block_size`` batching
width — the executor's bit-identity contract guarantees those only change
scheduling, never measurements.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import pickle
import signal
import struct
import threading
import zlib
from pathlib import Path
from typing import TYPE_CHECKING, Iterator

from repro.errors import ConfigError, JournalModeError, MeasurementError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.config import LatestConfig
    from repro.core.results import PairResult
    from repro.machine import MachineBlueprint

__all__ = [
    "CampaignJournal",
    "JournalSink",
    "ShutdownGuard",
    "campaign_fingerprint",
    "campaign_synopsis",
    "read_journal_mode",
    "replay_events",
]

#: journal format version (bump on incompatible layout changes)
JOURNAL_VERSION = 1

#: frame header: payload length, CRC32 of the payload
_FRAME = struct.Struct("<II")

#: config fields excluded from the fingerprint — documented in the module
#: docstring; every one is execution-only and cannot change measurements
_FINGERPRINT_EXCLUDED = frozenset(
    {
        "output_dir",
        "inject_faults",
        "job_timeout_factor",
        "job_timeout_floor_s",
        "max_job_retries",
        "retry_backoff_s",
        "retry_backoff_max_s",
        "pass_block_size",
        "calibration_cache",
    }
)


def campaign_fingerprint(
    config: "LatestConfig", blueprint: "MachineBlueprint"
) -> str:
    """Content digest identifying a campaign's result space.

    Two campaigns share a fingerprint iff they are guaranteed to produce
    bit-identical pair results for every grid index — same config (minus
    the excluded execution-only knobs) on the same machine blueprint.
    """
    if blueprint is None:
        raise ConfigError(
            "campaign journaling needs a machine built by make_machine() "
            "(hand-assembled machines carry no replication blueprint)"
        )
    items = tuple(
        (f.name, getattr(config, f.name))
        for f in dataclasses.fields(config)
        if f.name not in _FINGERPRINT_EXCLUDED
    )
    # Multi-facet engine campaigns calibrate each facet on an independent
    # replica seed stream (the replica scheme, PR 9) rather than the
    # shared driver timeline, which moved their result space; the scheme
    # revision keys the fingerprint so a journal recorded under the old
    # timeline can never resume into mixed-epoch results.
    facet_scheme = 1 if config.facet_plan() == (None,) else 2
    # Fixed protocol so the digest is stable across interpreter versions.
    blob = pickle.dumps(
        (JOURNAL_VERSION, facet_scheme, items, blueprint), protocol=4
    )
    return hashlib.sha256(blob).hexdigest()


def campaign_synopsis(
    config: "LatestConfig", blueprint: "MachineBlueprint"
) -> dict:
    """Human-readable campaign summary stored in ``meta.json``.

    Purely informational (the fingerprint is what resume validates) — a
    sysadmin inspecting a journal directory should be able to tell which
    campaign it belongs to without unpickling anything.
    """
    return {
        "axis": config.axis,
        "hostname": getattr(blueprint, "hostname", None),
        "n_frequencies": len(config.frequencies),
        "n_pairs": len(config.pairs()),
        "n_facets": len(config.facet_plan()),
    }


class CampaignJournal:
    """Append-only ledger of completed pair results for one campaign.

    Use :meth:`open` — it creates a fresh journal or (with
    ``resume=True``) validates and reopens an existing one.  ``append``
    is durable per call (flush + fsync); ``load`` returns every intact
    record.  Instances are context managers.
    """

    def __init__(
        self,
        directory: Path,
        fingerprint: str,
        mode: str,
        meta: dict,
    ) -> None:
        self.directory = directory
        self.fingerprint = fingerprint
        self.mode = mode
        self.meta = meta
        self._fh = (directory / "pairs.log").open("ab")
        #: torn/corrupt tail frames detected by the last :meth:`load`
        self.n_corrupt_tail = 0

    # ------------------------------------------------------------------
    @classmethod
    def open(
        cls,
        directory: "str | Path",
        fingerprint: str,
        mode: str,
        resume: bool = False,
        synopsis: "dict | None" = None,
    ) -> "CampaignJournal":
        """Create a fresh journal, or reopen one for a resumed campaign.

        A fresh open refuses a directory that already holds a journal
        (silently mixing two campaigns' records would corrupt both); a
        resume open refuses a missing journal, a fingerprint mismatch
        (the config or machine changed — the stored results provably
        belong to a different campaign) and a serial-mode journal being
        resumed through the engine.
        """
        if mode not in ("engine", "serial"):
            raise ConfigError(f"unknown journal mode {mode!r}")
        directory = Path(directory)
        meta_path = directory / "meta.json"
        if meta_path.exists():
            try:
                meta = json.loads(meta_path.read_text())
            except json.JSONDecodeError as exc:
                raise MeasurementError(
                    f"corrupt journal metadata at {meta_path}: {exc}"
                ) from None
            if not resume:
                raise ConfigError(
                    f"journal at {directory} already exists; pass "
                    "resume=True (--resume) to continue it, or point "
                    "--journal at a fresh directory"
                )
            if meta.get("version") != JOURNAL_VERSION:
                raise MeasurementError(
                    f"journal at {directory} has format version "
                    f"{meta.get('version')}, this build writes "
                    f"{JOURNAL_VERSION}"
                )
            if meta.get("fingerprint") != fingerprint:
                raise MeasurementError(
                    f"journal at {directory} belongs to a different "
                    "campaign (config/seed fingerprint mismatch: journal "
                    f"{str(meta.get('fingerprint'))[:12]}…, this run "
                    f"{fingerprint[:12]}…); resume needs the identical "
                    "configuration and machine"
                )
            if meta.get("mode") != mode:
                raise JournalModeError(
                    f"journal at {directory} was written by a "
                    f"{meta.get('mode')}-mode campaign and cannot be "
                    f"resumed in {mode} mode (the serial loop shares one "
                    "RNG/clock timeline across pairs, so only engine-mode "
                    "journals resume bit-identically)",
                    recorded_mode=str(meta.get("mode")),
                )
            return cls(directory, fingerprint, mode, meta)
        if resume:
            raise ConfigError(
                f"cannot resume: no journal at {directory} "
                "(run once with --journal to create it)"
            )
        directory.mkdir(parents=True, exist_ok=True)
        meta = {
            "version": JOURNAL_VERSION,
            "fingerprint": fingerprint,
            "mode": mode,
            "synopsis": synopsis or {},
        }
        # Atomic metadata write: a crash here leaves either no journal or
        # a complete one, never a half-written meta.json.
        tmp = meta_path.with_name(meta_path.name + ".tmp")
        tmp.write_text(json.dumps(meta, indent=2, sort_keys=True) + "\n")
        os.replace(tmp, meta_path)
        return cls(directory, fingerprint, mode, meta)

    # ------------------------------------------------------------------
    def append(
        self, index: int, pair: "PairResult", elapsed_virtual_s: float
    ) -> None:
        """Durably record one completed pair (flushed + fsync'd)."""
        blob = pickle.dumps(
            (int(index), float(elapsed_virtual_s), pair),
            protocol=pickle.HIGHEST_PROTOCOL,
        )
        self._fh.write(_FRAME.pack(len(blob), zlib.crc32(blob)))
        self._fh.write(blob)
        self._fh.flush()
        os.fsync(self._fh.fileno())

    def _iter_records(self) -> Iterator[tuple[int, float, "PairResult"]]:
        path = self.directory / "pairs.log"
        self.n_corrupt_tail = 0
        if not path.exists():
            return
        with path.open("rb") as fh:
            while True:
                header = fh.read(_FRAME.size)
                if not header:
                    return
                if len(header) < _FRAME.size:
                    self.n_corrupt_tail += 1
                    return
                length, crc = _FRAME.unpack(header)
                blob = fh.read(length)
                if len(blob) < length or zlib.crc32(blob) != crc:
                    # Torn tail frame: the campaign died mid-append.  The
                    # record was never acknowledged, so dropping it (and
                    # anything after it) is safe — the pair simply re-runs.
                    self.n_corrupt_tail += 1
                    return
                index, elapsed, pair = pickle.loads(blob)
                yield index, elapsed, pair

    def load(self) -> "dict[int, tuple[PairResult, float]]":
        """Every intact journaled record, keyed by grid index.

        Duplicate indices keep the first occurrence — a duplicate can
        only come from an at-least-once redelivery of the same
        deterministic result, so the copies are bit-identical anyway.
        """
        records: dict[int, tuple["PairResult", float]] = {}
        for index, elapsed, pair in self._iter_records():
            records.setdefault(index, (pair, elapsed))
        return records

    # ------------------------------------------------------------------
    def close(self) -> None:
        if not self._fh.closed:
            self._fh.flush()
            os.fsync(self._fh.fileno())
            self._fh.close()

    def __enter__(self) -> "CampaignJournal":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def read_journal_mode(directory: "str | Path") -> "str | None":
    """The execution mode recorded in a journal's metadata, if readable.

    Diagnostic helper (no validation): returns ``None`` when the
    directory holds no parseable journal metadata.
    """
    meta_path = Path(directory) / "meta.json"
    try:
        meta = json.loads(meta_path.read_text())
    except (OSError, json.JSONDecodeError):
        return None
    mode = meta.get("mode")
    return str(mode) if mode is not None else None


class JournalSink:
    """Stream sink making the journal a durable consumer of pair events.

    Appends every live ``PairMeasured`` event the moment it is dispatched
    (flush + fsync per record).  Replayed events are already durable —
    they *came* from this journal — and planned ``PairSkipped`` events
    are recomputed from phase 1 on every run, so neither is re-appended;
    the on-disk ledger stays exactly the set of measured pairs.
    """

    def __init__(self, journal: CampaignJournal) -> None:
        self.journal = journal

    def on_event(self, event) -> None:
        from repro.core.stream import PairMeasured

        if isinstance(event, PairMeasured) and not event.replayed:
            self.journal.append(event.index, event.pair, event.elapsed_virtual_s)


def replay_events(
    loaded: "dict[int, tuple[PairResult, float]]",
) -> "Iterator":
    """Journaled records as synthetic ``PairMeasured`` events, index order.

    The resume producer emits these before any live measurement so sinks
    observe one coherent stream: every replayed event precedes every live
    one, and ``replayed=True`` tells durable sinks not to double-append.
    """
    from repro.core.stream import PairMeasured

    for index in sorted(loaded):
        pair, elapsed = loaded[index]
        yield PairMeasured(
            index=index, pair=pair, elapsed_virtual_s=elapsed, replayed=True
        )


class ShutdownGuard:
    """Scoped SIGINT/SIGTERM trap for graceful campaign shutdown.

    While active, the first signal only sets :attr:`requested`; the
    campaign driver polls it between dispatch rounds, stops submitting
    new jobs, drains the in-flight ones (their results still reach the
    journal) and raises
    :class:`~repro.errors.CampaignInterrupted`.  A second signal restores
    impatient semantics and raises :class:`KeyboardInterrupt` on the
    spot.  Off the main thread (where ``signal.signal`` is unavailable)
    the guard degrades to an inert flag that fault hooks may still set.
    """

    def __init__(self) -> None:
        self.requested = False
        self._previous: dict[int, object] = {}

    # ------------------------------------------------------------------
    def _handle(self, signum, frame) -> None:
        if self.requested:
            raise KeyboardInterrupt
        self.requested = True

    def __enter__(self) -> "ShutdownGuard":
        if threading.current_thread() is threading.main_thread():
            for signum in (signal.SIGINT, signal.SIGTERM):
                try:
                    self._previous[signum] = signal.signal(
                        signum, self._handle
                    )
                except (ValueError, OSError):  # pragma: no cover
                    pass
        return self

    def __exit__(self, *exc) -> None:
        for signum, previous in self._previous.items():
            try:
                signal.signal(signum, previous)
            except (ValueError, OSError):  # pragma: no cover
                pass
        self._previous.clear()
