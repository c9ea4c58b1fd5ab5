"""Child process timed by run.py for setup_s: a fresh interpreter imports the
package and builds the scenarios a workload needs before its first
operation, then exits.

    python3 benchmark/setup_probe.py <workload> <seed>
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import do_icbf  # noqa: E402,F401
import do_icbf.cli  # noqa: E402,F401
import workloads  # noqa: E402

if __name__ == "__main__":
    workloads.Workload(sys.argv[1], int(sys.argv[2]), ROOT / ".bench_out").build_scenarios()
