"""Self-test of the benchmark: determinism and trace coverage.

    python3 bench/selftest.py [WORKLOAD ...]      (default: every workload)

Runs each workload twice with one seed and tracing on, then checks that
  - both runs are correct;
  - both runs give the same stdout digest for the program's outputs;
  - every count (calls, classes, ratio numerators and bases) and both
    ratios repeat exactly;
  - the traced per-layer self times add up to within 5% of the traced wall.
Takes a few minutes per workload.  Exit code 0 when every check passes.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

from worker import WORKLOADS  # noqa: E402

SEED = 11


def run_once(workload: str) -> tuple[dict, dict]:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
           "--seed", str(SEED), "--seconds", "1", "--trace", "1"]
    out = subprocess.run(cmd, capture_output=True, text=True, check=True, timeout=600)
    detail, result = out.stdout.strip().splitlines()[-2:]
    return json.loads(detail), json.loads(result)


def check(workload: str) -> list[str]:
    (d1, r1), (d2, r2) = run_once(workload), run_once(workload)
    problems = []
    if not (r1["correct"] and r2["correct"]):
        problems.append("a run is not correct")
    if d1["stdout_sha256"] != d2["stdout_sha256"]:
        problems.append(f"stdout digests differ: {d1['stdout_sha256']} {d2['stdout_sha256']}")
    for name, m in r1["metrics"].items():
        exact = m["unit"] == "count" or name.endswith("_ratio")
        if exact and m["value"] != r2["metrics"][name]["value"]:
            problems.append(f"{name}: {m['value']} then {r2['metrics'][name]['value']}")
    for r in (r1, r2):
        share = r["metrics"]["trace.self_share"]["value"]
        if abs(share - 1) > 0.05:
            problems.append(f"self times cover {share:.3f} of the traced wall time")
    return problems


def main(argv: list[str]) -> int:
    failed = False
    for workload in argv or sorted(WORKLOADS):
        problems = check(workload)
        failed |= bool(problems)
        print(f"{workload}: {'FAIL' if problems else 'ok'}")
        for p in problems:
            print(f"  {p}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
