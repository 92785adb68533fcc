"""lieposet benchmark: run one workload and print its metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads are listed in BENCHMARK.json and explained in bench/METRICS.md.
Run from anywhere; the package is taken from `src/` next to `bench/`.
Inputs are generated from the seed, the workload runs in a fresh
single-threaded worker process, and every output is checked.  The last line
of stdout is one JSON object {correct, attempted, failed, metrics}: the
end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
The line before it gives the details behind the numbers (machine, seeds,
source digest, percentiles, sample counts, per-pass figures).  Scratch files
go to `.bench_work/` at the repository root.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import monotonic

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

sys.path.insert(0, str(BENCH))

from spans import SPAN_NAMES  # noqa: E402
from worker import WORKLOADS  # noqa: E402

SETUP_PROBES = 4  # extra fresh processes that only set up; plus the worker's own
TIME_LIMIT_S = 170  # the whole run, all subprocesses included
PERCENTILES = (50, 75, 90, 95, 99, 99.5, 99.9)


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    return env


def _worker(args: list, deadline: float) -> str:
    """Run one worker mode to completion; its stdout, or exit on failure."""
    cmd = [sys.executable, str(BENCH / "worker.py"), *map(str, args)]
    try:
        proc = subprocess.run(
            cmd,
            cwd=ROOT,
            env=_env(),
            stdout=subprocess.PIPE,
            text=True,
            timeout=max(deadline - monotonic(), 1),
        )
    except subprocess.TimeoutExpired:
        sys.exit(f"bench: worker {args[0]} exceeded the time limit")
    if proc.returncode:
        sys.exit(f"bench: worker {args[0]} failed with exit code {proc.returncode}")
    return proc.stdout


def _commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except OSError:
        return None
    return out.stdout.strip() or None


def _src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _median(values):
    return statistics.median(values) if values else 0.0


def _low_median(values):
    """The lower median: with two passes, the faster one.  Interference from
    other tenants of a shared machine only ever adds time, and one stalled
    pass out of two would otherwise move the figure by half its stall."""
    return statistics.median_low(values) if values else 0.0


def item_stats(passes: list[dict]) -> dict:
    """Each item's time is the lower median of its times over the passes;
    then the median item and the highest listed percentile with at least
    ten items beyond it (nearest rank).  In a single pass the tail is set by
    whichever items a pause of the machine or the collector happened to
    hit, not by the slowest items; across passes such a pause seldom hits
    the same item twice."""
    s = sorted(_low_median(col) for col in zip(*(p["times"] for p in passes)))
    n = len(s)
    if not n:
        return {"p50": 0.0, "tail": 0.0, "tail_pct": None, "samples": 0, "passes": len(passes)}
    rank = lambda q: max(math.ceil(q / 100 * n), 1) - 1  # noqa: E731
    fits = [q for q in PERCENTILES if n - 1 - rank(q) >= 10]
    q = fits[-1] if fits else 100
    return {"p50": s[rank(50)], "tail": s[rank(q)], "tail_pct": q, "samples": n, "passes": len(passes)}


def end_to_end(result: dict, items: dict, setups: list[float]) -> dict:
    passes = [p for p in result["passes"] if not p["traced"]]
    return {
        "wall_s": (_low_median([p["wall_s"] for p in passes]), "s"),
        "cpu_s": (_low_median([p["cpu_s"] for p in passes]), "s"),
        "items_per_s": (
            statistics.median_high([p["attempted"] / p["wall_s"] for p in passes]),
            "1/s",
        ),
        "item_p50_ms": (items["p50"] * 1e3, "ms"),
        "item_tail_ms": (items["tail"] * 1e3, "ms"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
        "setup_s": (_median(setups), "s"),
    }


def per_layer(result: dict) -> dict:
    plain = [p for p in result["passes"] if not p["traced"]]
    traced = [p for p in result["passes"] if p["traced"]]
    if not traced:
        sys.exit("bench: no traced pass fitted in the time limit")
    first = traced[0]["trace"]
    edges = {(p, c): k for p, c, k in first["edges"]}
    out = {}
    for name in SPAN_NAMES:
        out[f"{name}.s"] = (_median([p["trace"]["self_s"][name] for p in traced]), "s")
        out[f"{name}.calls"] = (first["calls"][name], "count")
    out["posets.enumerate_posets.classes"] = (first["yields"]["posets.enumerate_posets"], "count")

    def ratio(name, num, base):
        out[name] = (num / base if base else 0.0, "ratio")
        out[f"{name}.num"] = (num, "count")
        out[f"{name}.base"] = (base, "count")

    gen, verify = "contact.generate_contact_replays", "contact.verify_replay"
    ratio(
        "contact.replay_dedupe_ratio",
        first["yields"][gen],
        edges.get((gen, "contact.Replay.apply"), 0),
    )
    ratio(
        "linalg.exact_fallback_ratio",
        edges.get((verify, "linalg.RationalMatrix.determinant"), 0),
        first["calls"][verify],
    )
    traced_wall = _median([p["wall_s"] for p in traced])
    out["trace.wall_s"] = (traced_wall, "s")
    out["trace.overhead_s"] = (traced_wall - _median([p["wall_s"] for p in plain]), "s")
    out["trace.self_share"] = (
        _median([sum(p["trace"]["self_s"].values()) / p["wall_s"] for p in traced]),
        "ratio",
    )
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    deadline = monotonic() + TIME_LIMIT_S
    loadavg = os.getloadavg()
    if not (SRC / "lieposet" / "__init__.py").is_file():
        sys.exit(f"bench: no lieposet package under {SRC}")

    work = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    _worker(["gen", args.workload, args.seed, work], deadline)
    setups = [
        json.loads(_worker(["setup", args.workload, work], deadline))["setup_s"]
        for _ in range(0 if args.trace else SETUP_PROBES)
    ]
    _worker(["run", args.workload, work, args.seconds, args.trace], deadline)
    result = json.loads((work / "result.json").read_text())
    setups.append(result["setup_s"])

    passes = result["passes"]
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    digests = {p["digest"] for p in passes}
    items = item_stats([p for p in passes if not p["traced"]])
    if args.trace:
        metrics = per_layer(result)
        metrics["error_rate"] = (failed / attempted, "ratio")
    else:
        metrics = end_to_end(result, items, setups)
        metrics["ok_rate"] = ((attempted - failed) / attempted, "ratio")
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": result["numpy"],
            "platform": platform.platform(),
            "loadavg_start": loadavg,
        },
        "commit": _commit(),
        "src_sha256": _src_digest(),
        "inputs_sha256": hashlib.sha256((work / "inputs.json").read_bytes()).hexdigest(),
        "stdout_sha256": sorted(digests),
        "setup_samples_s": setups,
        "items": items,
        "passes": [{k: v for k, v in p.items() if k not in ("trace", "times")} for p in passes],
    }
    (work / "report.json").write_text(json.dumps({**detail, "result": result}) + "\n")
    print(json.dumps(detail))
    print(
        json.dumps(
            {
                "correct": failed == 0 and len(digests) == 1,
                "attempted": attempted,
                "failed": failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
