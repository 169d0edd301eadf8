"""The LATEST methodology: GPU frequency switching latency measurement.

Public entry points:

* :class:`~repro.core.config.LatestConfig` — campaign configuration
  mirroring the LATEST tool's CLI (frequencies, RSE threshold, min/max
  measurement counts, device index).
* :func:`~repro.core.campaign.run_campaign` — the three-phase campaign:
  phase 1 characterizes every frequency and validates pairs (Algorithm 1),
  the probe stage (:func:`~repro.core.campaign.probe_windows`) sizes the
  switch window, phase 2 runs the switch benchmark with synchronized
  timers, phase 3 evaluates per-SM detection with the
  two-standard-deviation criterion (Algorithm 2), followed by adaptive
  DBSCAN outlier filtering (Algorithm 3).
* :func:`~repro.core.wakeup.estimate_wakeup_latency` — the wake-up
  estimation procedure of Sec. V.
"""

from repro.core.axis import AXES, MeasurementAxis, axis_by_name
from repro.core.campaign import measure_pair, probe_windows, run_campaign
from repro.core.config import LatestConfig
from repro.core.journal import (
    CampaignJournal,
    ShutdownGuard,
    campaign_fingerprint,
)
from repro.core.phase1 import FrequencyCharacterization, Phase1Result, run_phase1
from repro.core.phase2 import RawSwitchData, run_switch_benchmark
from repro.core.phase3 import SwitchEvaluation, evaluate_switch
from repro.core.results import CampaignResult, PairKey, PairResult
from repro.core.wakeup import WakeupEstimate, estimate_wakeup_latency

__all__ = [
    "AXES",
    "MeasurementAxis",
    "axis_by_name",
    "LatestConfig",
    "CampaignJournal",
    "ShutdownGuard",
    "campaign_fingerprint",
    "measure_pair",
    "probe_windows",
    "run_campaign",
    "run_phase1",
    "Phase1Result",
    "FrequencyCharacterization",
    "run_switch_benchmark",
    "RawSwitchData",
    "evaluate_switch",
    "SwitchEvaluation",
    "CampaignResult",
    "PairResult",
    "PairKey",
    "estimate_wakeup_latency",
    "WakeupEstimate",
]
