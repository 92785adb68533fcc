"""One benchmark workload in a fresh process.

    python3 bench/worker.py gen   WORKLOAD SEED DIR      write DIR/inputs.json
    python3 bench/worker.py setup WORKLOAD DIR           print one set-up time
    python3 bench/worker.py run   WORKLOAD DIR SECONDS TRACE
                                                         write DIR/result.json

`bench/run.py` drives these modes; each runs in its own interpreter, with
`src` on PYTHONPATH and one thread.  A pass is one complete sweep over the
workload's inputs.  `run` repeats passes until SECONDS have gone by (at
least one pass; with TRACE=1 at least two, alternating untraced and
traced), and records per pass its wall and CPU time, the time of every
item in a fixed item order (the same in every pass, so `run.py` can take
each item's time over passes), the outputs' digest and the items that
failed their check.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import random
import resource
import sys
from contextlib import redirect_stdout
from pathlib import Path
from time import perf_counter, process_time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from spans import Tracer  # noqa: E402

# Sizes are fixed here, not drawn from the seed, so that every seed costs
# about the same and run-to-run spread reflects the program, not the input.
SWEEP_MAX_N = 7
SWEEP_CLASSES = 1397  # height <= 2 posets with 1..7 elements, up to isomorphism
REPLAY_MAX_STEPS = 4
REPLAY_STATES = 4621
# Algebra dimensions (|P| - 1 + relations) of the classify-large posets:
# 4 small (about 25 elements), 12 medium, 4 large (about 60 elements).  The
# median item then falls among twelve posets of one size.  With twenty sizes
# spread evenly it was the time of a single poset, and moved by a quarter
# from seed to seed.
CLASSIFY_DIMS = (60, 105, 105, 165, 105) * 4
RIGIDITY_SIZES = range(2, 6)
RIGIDITY_POSETS = 86  # all posets with 2..5 elements, up to isomorphism

PASS_DEADLINE_S = 150  # never start a pass that could end past this


# ---------------------------------------------------------------------------
# input generation (seeded; the program only ever sees these inputs)


def _grow_poset(rng: random.Random, dim: int, contact: bool):
    """Glue random blocks onto a replay until its poset algebra has at
    least the given dimension, |P| - 1 + (number of strict relations).

    With contact=True the sequence starts from P(1,1,1) and uses only the
    contact rules and the other three blocks, so the result is contact by
    construction; otherwise any block and any rule may be used.  Targets are
    drawn from the host's minimal and maximal elements, and steps the rules
    reject are skipped."""
    from lieposet.contact import BLOCKS, CONTACT_RULES, RULES, GluingStep, Replay
    from lieposet.contact import rule_applies_to_block
    from lieposet.errors import PolarityMismatch, RulePreconditionViolated

    kinds = ("P11", "P112", "P211") if contact else tuple(BLOCKS)
    rules = CONTACT_RULES if contact else tuple(RULES)
    rep = Replay.start("P111" if contact else rng.choice(kinds))
    while rep.poset.n - 1 + len(rep.poset.pairs) < dim:
        kind = rng.choice(kinds)
        tag = rng.choice([r for r in rules if rule_applies_to_block(r, kind)])
        rule = RULES[tag]
        ext = rep.poset.minimal + rep.poset.maximal
        step = GluingStep(
            kind,
            tag,
            target_x=rng.choice(ext) if rule.id_c else None,
            target_y=rng.choice(ext) if rule.id_a1 else None,
            target_z=rng.choice(ext) if rule.id_a2 else None,
        )
        try:
            rep = rep.apply(step)
        except (RulePreconditionViolated, PolarityMismatch):
            continue
    P = rep.poset
    if not (P.is_connected and P.height == 2):
        raise RuntimeError(f"generated poset is not connected of height two: {P!r}")
    return P


def _random_relabel(P, rng: random.Random) -> dict:
    """P under a seeded random linear extension, as poset JSON."""
    preds = {v: set() for v in range(1, P.n + 1)}
    for i, j in P.pairs:
        preds[j].add(i)
    placed: list[int] = []
    left = set(preds)
    while left:
        v = rng.choice(sorted(u for u in left if not preds[u] & left))
        placed.append(v)
        left.remove(v)
    new = {v: k + 1 for k, v in enumerate(placed)}
    return {"n": P.n, "relations": sorted([new[i], new[j]] for i, j in P.pairs)}


def generate(workload: str, seed: int, out: Path) -> dict:
    rng = random.Random(seed)
    if workload == "sweep-h2":
        return {"max_n": SWEEP_MAX_N, "seed": seed}
    if workload == "replay-verify":
        # the replay tree has no seed; the seed sets the verification order
        order = list(range(REPLAY_STATES))
        rng.shuffle(order)
        return {"max_steps": REPLAY_MAX_STEPS, "order": order}
    if workload == "classify-large":
        from lieposet.posets import poset_to_json

        items = []
        for k, dim in enumerate(CLASSIFY_DIMS):
            contact = k // 5 % 2 == 0  # each size gets both kinds
            P = _grow_poset(rng, dim, contact)
            name = f"classify-{k:02d}.json"
            (out / name).write_text(json.dumps(poset_to_json(P)) + "\n")
            items.append({"file": name, "contact": contact, "seed": seed + k})
        return {"items": items}
    if workload == "rigidity":
        from lieposet.posets import enumerate_posets

        posets = [
            _random_relabel(P, rng) for n in RIGIDITY_SIZES for P in enumerate_posets(n)
        ]
        if len(posets) != RIGIDITY_POSETS:
            raise RuntimeError(f"expected {RIGIDITY_POSETS} posets, got {len(posets)}")
        rng.shuffle(posets)
        return {"posets": posets}
    raise KeyError(workload)


# ---------------------------------------------------------------------------
# passes: each returns (raw outputs, per-item times); nothing else is timed.
# The k-th time is always the same item, whatever order the items ran in.


def pass_sweep(inp: dict, work: Path):
    """run_sweep drives its own loop, so an item is the stretch between two
    consecutive classes leaving the enumerator (a timestamp per class, the
    only hook in an untraced pass)."""
    from lieposet import sweep

    marks: list[float] = []
    inner = sweep.enumerate_posets

    def timed(*args, **kwargs):
        for P in inner(*args, **kwargs):
            marks.append(perf_counter())
            yield P

    sweep.enumerate_posets = timed
    try:
        report = sweep.run_sweep(inp["max_n"], inp["seed"])
    except Exception as exc:  # counted as failed items, never fatal
        report = {"error": repr(exc)}
    finally:
        sweep.enumerate_posets = inner
    marks.append(perf_counter())
    return report, [b - a for a, b in zip(marks, marks[1:])]


def check_sweep(inp: dict, report: dict):
    text = json.dumps(report, sort_keys=True, indent=2) + "\n"  # `lieposet sweep` stdout
    attempted = SWEEP_CLASSES
    if report.get("counts", {}).get("classes") != SWEEP_CLASSES:
        return attempted, attempted, text
    # a class fails when any of its oracle pairs disagrees
    bad = {json.dumps(d["poset"], sort_keys=True) for d in report["discrepancies"]}
    return attempted, max(len(bad), int(report["discrepancy_count"] > 0)), text


def pass_replay(inp: dict, work: Path):
    from lieposet.contact import generate_contact_replays, verify_replay

    states = list(generate_contact_replays(inp["max_steps"]))
    verdicts: list = [None] * len(states)
    times = [0.0] * len(states)
    for k in inp["order"]:
        if k >= len(states):
            continue
        t = perf_counter()
        try:
            verdicts[k] = verify_replay(states[k])
        except Exception as exc:
            verdicts[k] = repr(exc)
        times[k] = perf_counter() - t
    return (states, verdicts), times


def check_replay(inp: dict, outputs):
    from lieposet.posets import poset_to_json

    states, verdicts = outputs
    lines = [
        json.dumps([poset_to_json(rep.poset), rep.sequence().to_json(), ok])
        for rep, ok in zip(states, verdicts)
    ]
    attempted = max(len(states), REPLAY_STATES)
    failed = sum(ok is not True for ok in verdicts) + attempted - len(states)
    return attempted, failed, "\n".join(lines) + "\n"


def pass_classify(inp: dict, work: Path):
    from lieposet import cli

    outs, times = [], []
    for item in inp["items"]:
        argv = ["classify", str(work / item["file"]), "--seed", str(item["seed"])]
        buf = io.StringIO()
        t = perf_counter()
        try:
            with redirect_stdout(buf):
                code = cli.main(argv)
        except (Exception, SystemExit) as exc:
            code = repr(exc)
        times.append(perf_counter() - t)
        outs.append((code, buf.getvalue()))
    return outs, times


def check_classify(inp: dict, outs):
    failed = 0
    for item, (code, text) in zip(inp["items"], outs):
        try:
            report = json.loads(text)
            ok = (
                code == 0
                and report["index"]["formula"] == report["index"]["randomized"]
                and (report["verdict"] == "Contact" or not item["contact"])
            )
        except (ValueError, KeyError, TypeError):
            ok = False
        failed += not ok
    return len(inp["items"]), failed, "".join(f"{code}\n{text}" for code, text in outs)


def pass_rigidity(inp: dict, work: Path):
    from lieposet.cohomology import ce_cohomology_dims
    from lieposet.complexes import betti_numbers, order_complex
    from lieposet.liealg import build_type_a, center
    from lieposet.posets import poset_from_json

    outs, times = [], []
    for data in inp["posets"]:
        t = perf_counter()
        try:
            P = poset_from_json(data)
            g = build_type_a(P)
            c = len(center(g))
            bb = betti_numbers(order_complex(P), reduced=True, up_to=2)
            ce = list(ce_cohomology_dims(g))
            outs.append((P.n, c, bb, ce))
        except Exception as exc:
            outs.append(repr(exc))
        times.append(perf_counter() - t)
    return outs, times


def check_rigidity(inp: dict, outs):
    """H^2 = C(h, 2) * dim Z + h * b~1 + b~2 with h = |P| - 1 (criterion 6)."""
    failed = 0
    for row in outs:
        if not isinstance(row, tuple):
            failed += 1
            continue
        n, c, bb, ce = row
        bb = bb + [0] * (3 - len(bb))
        h = n - 1
        failed += ce[2] != (h * (h - 1) // 2) * c + h * bb[1] + bb[2]
    text = "".join(json.dumps([d, row]) + "\n" for d, row in zip(inp["posets"], outs))
    return RIGIDITY_POSETS, failed + abs(RIGIDITY_POSETS - len(outs)), text


WORKLOADS = {
    "sweep-h2": (pass_sweep, check_sweep),
    "replay-verify": (pass_replay, check_replay),
    "classify-large": (pass_classify, check_classify),
    "rigidity": (pass_rigidity, check_rigidity),
}


# ---------------------------------------------------------------------------
# measurement


def setup(work: Path) -> dict:
    """The one-time work before the first item: import the package with its
    command line, and its one runtime dependency (which the package loads
    lazily, on the first rank modulo p); read the inputs."""
    import lieposet.cli  # noqa: F401
    import numpy  # noqa: F401

    return json.loads((work / "inputs.json").read_text())


def run(workload: str, work: Path, seconds: float, trace: bool) -> dict:
    t0 = perf_counter()
    inp = setup(work)
    setup_s = perf_counter() - t0
    do_pass, check = WORKLOADS[workload]
    passes = []
    start = perf_counter()
    while True:
        tracer = Tracer() if trace and len(passes) % 2 == 1 else None
        if tracer:
            tracer.install()
        c0, w0 = process_time(), perf_counter()
        try:
            outputs, times = do_pass(inp, work)
        finally:
            wall, cpu = perf_counter() - w0, process_time() - c0
            if tracer:
                tracer.uninstall()
        attempted, failed, text = check(inp, outputs)
        record = {
            "traced": tracer is not None,
            "wall_s": wall,
            "cpu_s": cpu,
            "items": len(times),
            "attempted": attempted,
            "failed": failed,
            "digest": hashlib.sha256(text.encode()).hexdigest(),
            "times": times,
        }
        if tracer:
            record["trace"] = {
                "self_s": tracer.self_s,
                "calls": tracer.calls,
                "yields": tracer.yields,
                "edges": [[p, c, k] for (p, c), k in sorted(tracer.edges.items())],
            }
        passes.append(record)
        elapsed = perf_counter() - start
        if len(passes) >= (2 if trace else 1) and elapsed >= seconds:
            break
        if elapsed + wall > PASS_DEADLINE_S:
            break
    import numpy

    return {
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "numpy": numpy.__version__,
        "passes": passes,
    }


def main(argv: list[str]) -> int:
    mode, workload = argv[0], argv[1]
    if workload not in WORKLOADS:
        raise SystemExit(f"unknown workload {workload!r}")
    if mode == "gen":
        seed, work = int(argv[2]), Path(argv[3])
        inputs = generate(workload, seed, work)
        (work / "inputs.json").write_text(json.dumps(inputs) + "\n")
    elif mode == "setup":
        t0 = perf_counter()
        setup(Path(argv[2]))
        print(json.dumps({"setup_s": perf_counter() - t0}))
    elif mode == "run":
        work, seconds, trace = Path(argv[2]), float(argv[3]), argv[4] == "1"
        result = run(workload, work, seconds, trace)
        (work / "result.json").write_text(json.dumps(result) + "\n")
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
