"""Persistent, content-addressed cache of per-facet calibrations.

Every campaign pays for phase-1 frequency characterization and the probe
window-sizing stage once per facet before a single pair is measured —
and for campaign-as-a-service workloads (ROADMAP item 1) repeat requests
against the same board/config are the *common* case.  This module caches
the complete calibration product of one facet — the
:class:`~repro.core.phase1.Phase1Result`, the
:class:`~repro.core.campaign.ProbeInfo` window estimate, the fixed
per-pass duration the dispatch cost model needs, and the virtual seconds
the calibration consumed — so a warm campaign skips straight to phase
2/3 while staying bit-identical to a cold run.

Key derivation
--------------
:func:`calibration_fingerprint` mirrors the
:func:`~repro.core.journal.campaign_fingerprint` discipline: a sha256
over the pickled (cache version, calibration-affecting config fields,
machine blueprint, seed-namespace scheme, facet coordinate) tuple at a
fixed pickle protocol.  Execution-only knobs — the journal's exclusion
set plus the per-pair measurement knobs that phase 1 and the probe never
read (stopping rule, per-pair window policy, per-pair resilience,
outlier labelling) — are excluded, so worker-count changes, journal
resumes, and phase-2/3 tuning all still hit.  The ``scheme`` component
separates the two calibration timelines the engine uses (see
:mod:`repro.exec.engine`): ``"driver"`` entries replay the single-facet
driver-timeline calibration, ``"replica"`` entries the per-facet
independent seed streams of multi-facet campaigns — the two can never
satisfy each other.

Eligibility
-----------
Cache validity assumes the campaign machine is freshly built from its
blueprint (exactly what ``make_machine`` and the CLI produce) — the same
assumption journal resume makes.  The engine therefore consults the
cache only when the driver clock still sits at the blueprint's start
time, and the serial shared timeline is ineligible entirely: it shares
one RNG/clock timeline across calibration and measurement, so a cached
calibration cannot be skipped bit-identically
(:class:`~repro.exec.engine.CampaignExecutor` raises a clear error).

Durability
----------
Entries are one file per key under the cache directory, written with the
journal's length+CRC32 framing to a temp file and atomically
``os.replace``\\ d into place.  A torn, truncated, bit-flipped, stale
(version or key mismatch) or otherwise unreadable entry degrades to a
cache *miss* — never an error; the calibration simply re-runs and the
entry is rewritten.  An in-memory LRU fronts the directory so repeated
lookups inside one process never re-read disk, and ``stats`` counts
hits, misses, installs and corrupt entries for observability
(``--profile`` and the CLI's cache summary line report them).
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
import pickle
import tempfile
import zlib
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path

from repro.core.journal import _FINGERPRINT_EXCLUDED, _FRAME

__all__ = [
    "CALIB_CACHE_VERSION",
    "CalibrationCache",
    "FacetCalibration",
    "calibration_fingerprint",
    "last_run_stats",
    "record_run_stats",
]

#: cache entry format version (bump on incompatible entry changes)
CALIB_CACHE_VERSION = 1

#: config fields that cannot affect the phase-1 characterization, the
#: probe window-sizing stage, or the fixed per-pass duration: the
#: journal's execution-only exclusions plus the knobs only the per-pair
#: phase-2/3 measurement loop reads.  Everything else — frequencies,
#: axis, facet coordinates, workload sizing, the detection criterion the
#: probe evaluates switches with, settle and timer-sync parameters —
#: stays in the key.
_CALIBRATION_EXCLUDED = _FINGERPRINT_EXCLUDED | frozenset(
    {
        "calibration_cache",
        # per-pair RSE stopping rule (phase 2/3 only)
        "rse_threshold",
        "min_measurements",
        "max_measurements",
        "rse_check_every",
        # per-pair window sizing (the probe uses probe_window_s directly)
        "switch_window_factor",
        "window_policy",
        # per-pair measurement-loop resilience
        "throttle_check_every",
        "throttle_backoff_s",
        "throttle_discard_count",
        "max_consecutive_failures",
        # per-pair outlier labelling (Algorithm 3)
        "outlier_config",
    }
)


@dataclass(frozen=True)
class FacetCalibration:
    """The complete, cacheable calibration product of one facet.

    ``elapsed_virtual_s`` is the virtual time the calibration consumed
    (facet-clock preparation + phase 1 + probe); a warm run advances the
    driver clock by it instead of re-measuring, so the campaign epoch —
    and therefore every pair result and ``wall_virtual_s`` — is
    bit-identical to the cold run.  ``fixed_pass_s`` is the facet's
    fixed per-pass duration evaluated while the facet clock was
    prepared, so the :class:`~repro.exec.jobs.ProbeCostModel` rebuilds
    identically from cached data without a live ``BenchContext``.
    ``prepared=False`` records a facet whose clock could not be locked
    (the failed settle attempt still consumed ``elapsed_virtual_s``).
    """

    facet_index: int
    facet: float | None
    prepared: bool
    phase1: "Phase1Result | None"  # noqa: F821 - annotation only
    probe: "ProbeInfo | None"  # noqa: F821 - annotation only
    fixed_pass_s: float
    elapsed_virtual_s: float


def _canonical(value):
    """Identity-insensitive canonical form of a fingerprint input.

    Hashing a raw pickle would leak object-graph *identity* into the
    digest: pickle memoizes shared objects, and the GPU spec carries
    lazily populated lookup memos whose sharing topology changes once a
    campaign has run — equal values, different bytes.  Dataclasses
    reduce to their declared fields only (never ``__dict__``), and
    leaves reduce to ``repr`` (exact for floats), so two structurally
    equal inputs always canonicalize identically.
    """
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return (
            type(value).__name__,
            tuple(
                (f.name, _canonical(getattr(value, f.name)))
                for f in dataclasses.fields(value)
            ),
        )
    if isinstance(value, (tuple, list)):
        return ("seq", tuple(_canonical(v) for v in value))
    if isinstance(value, dict):
        return (
            "map",
            tuple(
                sorted((repr(k), _canonical(v)) for k, v in value.items())
            ),
        )
    return repr(value)


def calibration_fingerprint(
    config,
    blueprint,
    facet_index: int,
    facet: float | None,
    scheme: str,
) -> str:
    """Content digest identifying one facet's calibration inputs.

    Two calibrations share a fingerprint iff they are guaranteed to
    produce a bit-identical :class:`FacetCalibration`: same
    calibration-affecting config fields, same machine blueprint, same
    seed-namespace ``scheme`` (``"driver"`` or ``"replica"``), same
    facet position and coordinate.
    """
    items = tuple(
        (f.name, getattr(config, f.name))
        for f in dataclasses.fields(config)
        if f.name not in _CALIBRATION_EXCLUDED
    )
    blob = repr(
        (
            CALIB_CACHE_VERSION,
            _canonical(items),
            _canonical(blueprint),
            str(scheme),
            int(facet_index),
            None if facet is None else float(facet),
        )
    ).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


class CalibrationCache:
    """Disk-backed calibration store with an in-memory LRU front.

    ``get`` returns a cached :class:`FacetCalibration` or ``None`` —
    corrupt, stale, or unreadable entries count as misses, never raise.
    ``install`` writes an entry durably (framed, CRC'd, atomic rename);
    a failed write is swallowed too (the cache is an accelerator, not a
    correctness dependency).
    """

    def __init__(
        self, directory: "str | Path", max_memory_entries: int = 64
    ) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.max_memory_entries = int(max_memory_entries)
        self._memory: "OrderedDict[str, FacetCalibration]" = OrderedDict()
        self.stats = {"hits": 0, "misses": 0, "installs": 0, "corrupt": 0}

    def _path(self, key: str) -> Path:
        return self.directory / f"{key}.calib"

    def _remember(self, key: str, entry: FacetCalibration) -> None:
        self._memory[key] = entry
        self._memory.move_to_end(key)
        while len(self._memory) > self.max_memory_entries:
            self._memory.popitem(last=False)

    # ------------------------------------------------------------------
    def get(self, key: str) -> FacetCalibration | None:
        entry = self._memory.get(key)
        if entry is not None:
            self._memory.move_to_end(key)
            self.stats["hits"] += 1
            return entry
        entry = self._read(key)
        if entry is None:
            self.stats["misses"] += 1
            return None
        self._remember(key, entry)
        self.stats["hits"] += 1
        return entry

    def _read(self, key: str) -> FacetCalibration | None:
        path = self._path(key)
        try:
            raw = path.read_bytes()
        except FileNotFoundError:
            return None
        except OSError:
            self.stats["corrupt"] += 1
            return None
        if len(raw) < _FRAME.size:
            self.stats["corrupt"] += 1
            return None
        length, crc = _FRAME.unpack(raw[: _FRAME.size])
        blob = raw[_FRAME.size : _FRAME.size + length]
        if len(blob) < length or zlib.crc32(blob) != crc:
            self.stats["corrupt"] += 1
            return None
        try:
            version, stored_key, entry = pickle.loads(blob)
        except Exception:
            self.stats["corrupt"] += 1
            return None
        if (
            version != CALIB_CACHE_VERSION
            or stored_key != key
            or not isinstance(entry, FacetCalibration)
        ):
            # Stale format or a file renamed under a foreign key: a miss,
            # not an error — the entry will be recomputed and rewritten.
            self.stats["corrupt"] += 1
            return None
        return entry

    def install(self, key: str, entry: FacetCalibration) -> None:
        blob = pickle.dumps(
            (CALIB_CACHE_VERSION, key, entry),
            protocol=pickle.HIGHEST_PROTOCOL,
        )
        framed = _FRAME.pack(len(blob), zlib.crc32(blob)) + blob
        tmp = None
        try:
            fd, tmp = tempfile.mkstemp(
                dir=self.directory, prefix=".calib-tmp-"
            )
            with os.fdopen(fd, "wb") as fh:
                fh.write(framed)
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, self._path(key))
            tmp = None
        except OSError:
            # A read-only or full cache directory must not fail the
            # campaign; the entry just is not persisted this run.
            if tmp is not None:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
        self._remember(key, entry)
        self.stats["installs"] += 1


#: stats of the most recent executor run that had a cache attached, for
#: the CLI summary line and the ``--profile`` breakdown (one campaign
#: per CLI process, so a module global is unambiguous there)
_LAST_RUN_STATS: dict | None = None


def record_run_stats(stats: dict) -> None:
    global _LAST_RUN_STATS
    _LAST_RUN_STATS = dict(stats)


def last_run_stats() -> dict | None:
    return None if _LAST_RUN_STATS is None else dict(_LAST_RUN_STATS)
