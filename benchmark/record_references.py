"""Record the golden outputs every benchmark operation is checked against.

    python3 benchmark/record_references.py

Runs every operation each workload can draw (the CLI commands, the grid
checks and every member of the variant pools) and writes their exit codes,
halt reasons, CSV / logged-row sha256 and validity verdicts to
references.json, together with the pool parameters. Re-record only when an
output is meant to change, and say so with the change.
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402


def main() -> int:
    refs = {"pool_seed": workloads.POOL_SEED,
            "pools": {f: [list(v.params) for v in pool]
                      for f, pool in workloads.variant_pools().items()}}
    for name in workloads.WORKLOADS:
        workload = workloads.Workload(name, 0, ROOT / ".bench_out")
        refs[name] = {}
        for op in workload.all_ops():
            op.prepare()
            record, _ = op.observe(op.run())
            refs[name][op.key] = record
            print(name, op.key, record, flush=True)
    path = Path(__file__).resolve().parent / "references.json"
    path.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
