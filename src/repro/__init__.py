"""repro — reproduction of *Methodology for GPU Frequency Switching Latency
Measurement* (IPPS 2025, arXiv:2502.20075).

The package implements the paper's LATEST methodology end to end on a
simulated CUDA GPU substrate:

* :mod:`repro.machine` — build a simulated node (host CPU + GPUs),
* :mod:`repro.core` — the three-phase switching-latency methodology,
* :mod:`repro.analysis` — tables/figures reproduction helpers,
* :mod:`repro.gpusim`, :mod:`repro.cuda`, :mod:`repro.nvml`,
  :mod:`repro.timesync` — the hardware/driver substrate,
* :mod:`repro.stats`, :mod:`repro.clustering` — statistical machinery,
* :mod:`repro.ftalat` — the CPU-side FTaLaT baseline,
* :mod:`repro.governor` — a latency-aware DVFS governor built on the
  measured tables (the paper's motivating use case).

Quickstart::

    from repro import LatestConfig, make_machine, run_campaign

    machine = make_machine("A100", seed=7)
    config = LatestConfig(frequencies=(705.0, 1095.0, 1410.0),
                          record_sm_count=16, max_measurements=40)
    result = run_campaign(machine, config)
    print(result.latency_matrix("max") * 1e3)   # worst case, ms

Pass ``workers=N`` to :func:`run_campaign` to fan the frequency pairs out
over a process pool (:mod:`repro.exec`); the result is bit-identical for
every worker count.
"""

from repro.core.campaign import measure_pair, probe_windows, run_campaign
from repro.core.config import LatestConfig
from repro.core.results import CampaignResult, PairResult
from repro.machine import Machine, MachineBlueprint, make_machine

__version__ = "1.1.0"

__all__ = [
    "__version__",
    "make_machine",
    "Machine",
    "MachineBlueprint",
    "LatestConfig",
    "measure_pair",
    "probe_windows",
    "run_campaign",
    "CampaignResult",
    "PairResult",
]
