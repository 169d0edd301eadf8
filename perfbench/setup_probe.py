"""One workload set-up in a fresh interpreter (a ``setup_s`` sample).

Usage: ``python3 perfbench/setup_probe.py <workload> <scratch-dir>``.
Prints ``ready <peak RSS in MB>`` once the workload could submit its first
campaign (imports done, machine built or service started), then tears down.
"""

import sys
from pathlib import Path

if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    import workloads

    workloads.set_up(
        workloads.WORKLOADS[sys.argv[1]],
        Path(sys.argv[2]),
        lambda: print("ready", workloads.peak_rss_mb(), flush=True),
    )
