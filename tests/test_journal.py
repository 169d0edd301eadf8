"""Unit tests for the durable campaign journal and shutdown guard."""

from __future__ import annotations

import dataclasses
import os
import signal

import pytest

from repro import make_machine
from repro.core.journal import (
    CampaignJournal,
    ShutdownGuard,
    campaign_fingerprint,
    campaign_synopsis,
)
from repro.core.results import PairResult
from repro.errors import ConfigError, MeasurementError
from tests.conftest import fast_config


def _cfg(**over):
    return fast_config((705.0, 1095.0, 1410.0), **over)


def _pair(i: float = 705.0, t: float = 1410.0) -> PairResult:
    return PairResult(init_mhz=i, target_mhz=t)


class TestFingerprint:
    def test_stable_for_identical_campaigns(self):
        m1 = make_machine("A100", seed=5)
        m2 = make_machine("A100", seed=5)
        assert campaign_fingerprint(_cfg(), m1.blueprint) == (
            campaign_fingerprint(_cfg(), m2.blueprint)
        )

    def test_changes_with_result_affecting_config(self):
        bp = make_machine("A100", seed=5).blueprint
        assert campaign_fingerprint(_cfg(), bp) != campaign_fingerprint(
            _cfg(rse_threshold=0.01), bp
        )

    def test_changes_with_machine_seed(self):
        cfg = _cfg()
        assert campaign_fingerprint(
            cfg, make_machine("A100", seed=5).blueprint
        ) != campaign_fingerprint(
            cfg, make_machine("A100", seed=6).blueprint
        )

    def test_execution_only_knobs_excluded(self):
        # A resume may legitimately vary supervision/batching/output
        # settings: they provably cannot change measurements.
        bp = make_machine("A100", seed=5).blueprint
        base = campaign_fingerprint(_cfg(), bp)
        varied = _cfg(
            output_dir="/tmp/elsewhere",
            max_job_retries=9,
            job_timeout_factor=3.0,
            retry_backoff_s=0.0,
            inject_faults="kill@0",
            pass_block_size=7,
        )
        assert campaign_fingerprint(varied, bp) == base

    def test_digest_pinned_across_config_field_removals(self):
        # Journals written before an execution-only config field was
        # removed must still resume: the digest of an unchanged campaign
        # stays exactly what it was.
        from repro.core.config import LatestConfig

        bp = make_machine("A100", seed=0).blueprint
        # Fill the spec's memoized ladders first: process history must not
        # leak into the digest.
        bp.gpu_model.nearest_supported_clock(1000.0)
        bp.gpu_model.nearest_supported_power_limit(300.0)
        assert campaign_fingerprint(
            LatestConfig(frequencies=(705.0, 1410.0)), bp
        ) == "5ff1ab1e356b8c33c5e87e6f8dac035c260341dd97f3d1462d3322ee3d9a42ea"

    def test_rejects_blueprintless_machine(self):
        with pytest.raises(ConfigError, match="blueprint"):
            campaign_fingerprint(_cfg(), None)

    def test_synopsis_is_json_friendly(self):
        import json

        bp = make_machine("A100", seed=5).blueprint
        synopsis = campaign_synopsis(_cfg(), bp)
        assert synopsis["n_pairs"] == 6
        assert synopsis["n_facets"] == 1
        json.dumps(synopsis)


class TestJournalLifecycle:
    def test_append_load_roundtrip(self, tmp_path):
        journal = CampaignJournal.open(tmp_path / "j", "f" * 64, "engine")
        journal.append(3, _pair(), 1.5)
        journal.append(5, _pair(1095.0, 705.0), 2.5)
        journal.close()
        reopened = CampaignJournal.open(
            tmp_path / "j", "f" * 64, "engine", resume=True
        )
        records = reopened.load()
        reopened.close()
        assert sorted(records) == [3, 5]
        pair, elapsed = records[3]
        assert (pair.init_mhz, pair.target_mhz, elapsed) == (705.0, 1410.0, 1.5)

    def test_fresh_open_refuses_existing_journal(self, tmp_path):
        CampaignJournal.open(tmp_path / "j", "f" * 64, "engine").close()
        with pytest.raises(ConfigError, match="already exists"):
            CampaignJournal.open(tmp_path / "j", "f" * 64, "engine")

    def test_resume_refuses_missing_journal(self, tmp_path):
        with pytest.raises(ConfigError, match="no journal"):
            CampaignJournal.open(
                tmp_path / "nope", "f" * 64, "engine", resume=True
            )

    def test_resume_refuses_fingerprint_mismatch(self, tmp_path):
        CampaignJournal.open(tmp_path / "j", "a" * 64, "engine").close()
        with pytest.raises(MeasurementError, match="fingerprint"):
            CampaignJournal.open(
                tmp_path / "j", "b" * 64, "engine", resume=True
            )

    def test_resume_refuses_mode_mismatch(self, tmp_path):
        CampaignJournal.open(tmp_path / "j", "f" * 64, "serial").close()
        with pytest.raises(MeasurementError, match="serial"):
            CampaignJournal.open(
                tmp_path / "j", "f" * 64, "engine", resume=True
            )

    def test_duplicate_indices_keep_first(self, tmp_path):
        # At-least-once delivery can journal a pair twice; both copies are
        # bit-identical by determinism, and the loader keeps the first.
        journal = CampaignJournal.open(tmp_path / "j", "f" * 64, "engine")
        journal.append(1, _pair(), 1.0)
        journal.append(1, _pair(), 9.0)
        records = journal.load()
        journal.close()
        assert len(records) == 1
        assert records[1][1] == 1.0

    def test_torn_tail_frame_dropped(self, tmp_path):
        journal = CampaignJournal.open(tmp_path / "j", "f" * 64, "engine")
        journal.append(1, _pair(), 1.0)
        journal.append(2, _pair(), 2.0)
        journal.close()
        log = tmp_path / "j" / "pairs.log"
        data = log.read_bytes()
        log.write_bytes(data[:-7])  # SIGKILL mid-append
        reopened = CampaignJournal.open(
            tmp_path / "j", "f" * 64, "engine", resume=True
        )
        records = reopened.load()
        reopened.close()
        assert sorted(records) == [1]
        assert reopened.n_corrupt_tail == 1

    def test_corrupt_crc_dropped(self, tmp_path):
        journal = CampaignJournal.open(tmp_path / "j", "f" * 64, "engine")
        journal.append(1, _pair(), 1.0)
        journal.close()
        log = tmp_path / "j" / "pairs.log"
        data = bytearray(log.read_bytes())
        data[-1] ^= 0xFF
        log.write_bytes(bytes(data))
        reopened = CampaignJournal.open(
            tmp_path / "j", "f" * 64, "engine", resume=True
        )
        assert reopened.load() == {}
        reopened.close()

    def test_appends_survive_without_close(self, tmp_path):
        # Durability contract: every acknowledged append is on disk even
        # if the process never gets to close() (crash, SIGKILL).
        journal = CampaignJournal.open(tmp_path / "j", "f" * 64, "engine")
        journal.append(7, _pair(), 3.0)
        fresh = CampaignJournal.open(
            tmp_path / "j", "f" * 64, "engine", resume=True
        )
        assert sorted(fresh.load()) == [7]
        fresh.close()
        journal.close()


class TestShutdownGuard:
    def test_first_signal_sets_flag_second_raises(self):
        with ShutdownGuard() as guard:
            assert not guard.requested
            os.kill(os.getpid(), signal.SIGINT)
            assert guard.requested
            with pytest.raises(KeyboardInterrupt):
                os.kill(os.getpid(), signal.SIGINT)
                # The handler raises at the next bytecode boundary; pause()
                # is only a delivery point if it somehow hasn't yet.
                signal.pause()

    def test_handlers_restored_on_exit(self):
        before_int = signal.getsignal(signal.SIGINT)
        before_term = signal.getsignal(signal.SIGTERM)
        with ShutdownGuard():
            assert signal.getsignal(signal.SIGINT) != before_int
        assert signal.getsignal(signal.SIGINT) is before_int
        assert signal.getsignal(signal.SIGTERM) is before_term

    def test_sigterm_also_graceful(self):
        with ShutdownGuard() as guard:
            os.kill(os.getpid(), signal.SIGTERM)
            assert guard.requested


def test_fingerprint_excludes_are_real_fields():
    from repro.core.config import LatestConfig
    from repro.core.journal import _FINGERPRINT_EXCLUDED

    names = {f.name for f in dataclasses.fields(LatestConfig)}
    assert _FINGERPRINT_EXCLUDED <= names
