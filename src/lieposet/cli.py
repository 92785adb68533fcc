"""Command-line driver.

Subcommands: classify, sweep, build, index, homology, export-dot.  All
randomness is surfaced through --seed/--trials; identical inputs and seeds
produce byte-identical reports.  Exit codes: 0 success, 2 input error,
3 discrepancy, 4 size bound.
"""

from __future__ import annotations

import argparse
import json
import sys

from .cohomology import ce_cohomology_dims
from .complexes import betti_numbers, check_homology_dimension, complex_from_json, order_complex
from .contact import (
    ContactSequence,
    classify_h2,
    classifier_contact_form,
    contact_form_from_replay,
    expected_kernel_coords,
    kernel_is_span_of,
    replay_sequence,
)
from .errors import DiscrepancyFound, LiePosetError, SizeBound
from .liealg import (
    build_type_a,
    center_dim,
    index,
    index_certified,
    index_formula_h2,
    kirillov_rows,
    raw_from_json,
    SYMBOLIC_INDEX_BOUND,
)
from .linalg import sparse_determinant
from .posets import is_forest, poset_from_json, poset_to_dot, poset_to_json
from .sweep import run_sweep

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_DISCREPANCY = 3
EXIT_SIZE = 4


def _read_json(path: str) -> dict:
    if path == "-":
        data = json.load(sys.stdin)
    else:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    if not isinstance(data, dict):
        raise LiePosetError("input must be a JSON object")
    return data


def _emit(data, fmt: str) -> None:
    if fmt == "json":
        sys.stdout.write(json.dumps(data, sort_keys=True, indent=2) + "\n")
    else:
        for line in _text_lines(data, prefix=""):
            sys.stdout.write(line + "\n")


def _text_lines(data, prefix: str):
    if isinstance(data, dict):
        for key in sorted(data):
            value = data[key]
            if isinstance(value, (dict, list)):
                yield f"{prefix}{key}:"
                yield from _text_lines(value, prefix + "  ")
            else:
                yield f"{prefix}{key}: {value}"
    elif isinstance(data, list):
        for value in data:
            if isinstance(value, (dict, list)):
                yield from _text_lines(value, prefix + "  ")
            else:
                yield f"{prefix}- {value}"
    else:
        yield f"{prefix}{data}"


def cmd_classify(args) -> int:
    P = poset_from_json(_read_json(args.file))
    report: dict = {"poset": poset_to_json(P)}
    cls = classify_h2(P)
    formula = index_formula_h2(P)
    report["index"] = {"formula": formula}
    if P.n >= 2:
        alg = build_type_a(P)
        est = index(alg, trials=args.trials, seed=args.seed)
        report["index"]["randomized"] = est.value
        report["index"]["failure_bound"] = str(est.failure_bound)
        if alg.dim <= SYMBOLIC_INDEX_BOUND:
            report["index"]["certified"] = index_certified(alg)
        report["center_dim"] = center_dim(alg)
    else:
        report["center_dim"] = 0
    acyclic, cycle = is_forest(P)
    report["hasse_cycle"] = cycle if not acyclic else None
    report["betti"] = betti_numbers(order_complex(P))
    if cls.contact:
        report["verdict"] = "Contact"
        phi = classifier_contact_form(P, cls, seed=args.seed)
        certificate: dict = {"contact_form": phi.to_terms()}
        if cls.sequence is not None:
            certificate["sequence"] = cls.sequence.to_json()
        else:
            certificate["components"] = [poset_to_json(c) for c in cls.components]
        report["certificate"] = certificate
    else:
        report["verdict"] = "NotContact"
        report["obstruction"] = {
            "kind": cls.obstruction.kind,
            "witness": cls.obstruction.witness,
            "message": cls.obstruction.message,
        }
    _emit(report, args.format)
    return EXIT_OK


def cmd_sweep(args) -> int:
    report = run_sweep(args.max_n, args.seed, trials=args.trials)
    _emit(report, args.format)
    if report["discrepancy_count"]:
        raise DiscrepancyFound(f"{report['discrepancy_count']} oracle discrepancies")
    return EXIT_OK


def cmd_build(args) -> int:
    seq = ContactSequence.from_json(_read_json(args.file))
    rep = replay_sequence(seq)
    P = rep.poset
    alg = build_type_a(P)
    phi = contact_form_from_replay(rep)
    rows, s = kirillov_rows(alg, phi, bordered=True)
    det = sparse_determinant(rows) / s ** len(rows)
    r0 = rep.roles[0]
    coords = expected_kernel_coords(P, r0["x"], r0["m"])
    report = {
        "poset": poset_to_json(P),
        "contact_form": phi.to_terms(),
        "extended_determinant": str(det),
        "kernel_matches": kernel_is_span_of(alg, phi, coords),
    }
    _emit(report, args.format)
    return EXIT_OK


def cmd_index(args) -> int:
    data = _read_json(args.file)
    report: dict = {}
    if "relations" in data:
        P = poset_from_json(data)
        report["poset"] = poset_to_json(P)
        if P.height <= 2:
            report["formula"] = index_formula_h2(P)
        if P.n >= 2:
            alg = build_type_a(P)
        else:
            _emit({**report, "randomized": 0}, args.format)
            return EXIT_OK
    elif "brackets" in data:
        alg = raw_from_json(data)
    else:
        raise LiePosetError("input must be a poset or structure-constant JSON object")
    est = index(alg, trials=args.trials, seed=args.seed)
    report["dim"] = alg.dim
    report["randomized"] = est.value
    report["failure_bound"] = str(est.failure_bound)
    if alg.dim <= SYMBOLIC_INDEX_BOUND:
        report["certified"] = index_certified(alg)
    _emit(report, args.format)
    return EXIT_OK


def cmd_homology(args) -> int:
    data = _read_json(args.file)
    if "relations" in data:
        P = poset_from_json(data)
        check_homology_dimension(P.height)  # the order complex's dimension
        K = order_complex(P)
        report = {"poset": poset_to_json(P)}
    elif "faces" in data:
        K = complex_from_json(data)
        report = {}
    else:
        raise LiePosetError("input must be a poset or complex JSON object")
    report["face_counts"] = K.face_counts()
    report["betti"] = betti_numbers(K)
    report["reduced_betti"] = betti_numbers(K, reduced=True)
    report["euler_characteristic"] = K.euler_characteristic()
    if args.cohomology and "poset" in report and P.n >= 2:
        report["ce_cohomology"] = list(ce_cohomology_dims(build_type_a(P)))
    _emit(report, args.format)
    return EXIT_OK


def cmd_export_dot(args) -> int:
    P = poset_from_json(_read_json(args.file))
    sys.stdout.write(poset_to_dot(P))
    return EXIT_OK


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lieposet",
        description="Contact classification and exact index machinery for "
        "type-A Lie poset algebras.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, seeded=True, fmt=True):
        p.add_argument("file", help="input JSON file, or - for stdin")
        if seeded:
            p.add_argument("--seed", type=int, required=True, help="RNG seed (required)")
            p.add_argument("--trials", type=int, default=3)
        if fmt:
            p.add_argument("--format", choices=("json", "text"), default="json")

    p = sub.add_parser("classify", help="contact classification report for a poset")
    add_common(p)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("sweep", help="enumerate posets and cross-check all oracles")
    p.add_argument("--max-n", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--trials", type=int, default=3)
    p.add_argument("--format", choices=("json", "text"), default="json")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("build", help="replay a contact sequence script")
    add_common(p, seeded=False)
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("index", help="index of a poset algebra or raw algebra")
    add_common(p)
    p.set_defaults(func=cmd_index)

    p = sub.add_parser("homology", help="Betti numbers of an order complex")
    add_common(p, seeded=False)
    p.add_argument("--cohomology", action="store_true", help="include adjoint cohomology dims")
    p.set_defaults(func=cmd_homology)

    p = sub.add_parser("export-dot", help="Hasse diagram as DOT")
    add_common(p, seeded=False, fmt=False)
    p.set_defaults(func=cmd_export_dot)

    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except SizeBound as exc:
        _emit({"error": {"type": type(exc).__name__, "message": str(exc)}}, "json")
        return EXIT_SIZE
    except DiscrepancyFound as exc:
        sys.stderr.write(f"discrepancy: {exc}\n")
        return EXIT_DISCREPANCY
    except (LiePosetError, OSError, json.JSONDecodeError, ValueError) as exc:
        _emit({"error": {"type": type(exc).__name__, "message": str(exc)}}, "json")
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
