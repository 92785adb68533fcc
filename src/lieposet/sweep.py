"""Cross-validation sweeps: enumerate height-two posets and reconcile the
combinatorial classification with the exact linear-algebra oracles.

Any disagreement is build-stopping and surfaces as a nonzero discrepancy
count (the CLI turns that into exit code 3).
"""

from __future__ import annotations

import random

from .contact import classify_h2, classifier_contact_form, cycle_obstruction, verify_contact_form
from .liealg import (
    build_type_a,
    index,
    index_certified,
    index_formula_h2,
    is_frobenius_h2,
    kirillov_rows,
    random_functional,
    SYMBOLIC_INDEX_BOUND,
)
from .linalg import rank_mod_p
from .posets import enumerate_posets, poset_to_json


def run_sweep(max_n: int, seed: int, trials: int = 3, bound: int = 10**6) -> dict:
    """Enumerate every isomorphism class of height-at-most-two posets with
    up to `max_n` elements and cross-check all oracle pairs.  Returns a
    JSON-ready report; identical inputs produce identical reports."""
    from .errors import SizeBound
    from .posets import ENUMERATION_BOUND

    if max_n > ENUMERATION_BOUND:
        raise SizeBound(f"sweep limited to max_n <= {ENUMERATION_BOUND}")
    counts = {"classes": 0, "contact": 0, "frobenius": 0, "neither": 0}
    per_n = []
    discrepancies = []
    counter = 0
    for n in range(1, max_n + 1):
        row = {"n": n, "classes": 0, "contact": 0, "frobenius": 0}
        for P in enumerate_posets(n, max_height=2):
            counter += 1
            local_seed = seed + 7919 * counter
            formula = index_formula_h2(P)
            frob = is_frobenius_h2(P)
            cls = classify_h2(P)

            def report(check, detail):
                discrepancies.append(
                    {"poset": poset_to_json(P), "check": check, "detail": detail}
                )

            if frob != (formula == 0):
                report("frobenius-vs-formula", f"formula={formula} frobenius={frob}")
            if n >= 2:
                alg = build_type_a(P)
                est = index(alg, trials=trials, seed=local_seed, bound=bound)
                if est.value != formula:
                    report("randomized-index", f"formula={formula} randomized={est.value}")
                if alg.dim <= SYMBOLIC_INDEX_BOUND:
                    cert = index_certified(alg)
                    if cert != formula:
                        report("symbolic-index", f"formula={formula} symbolic={cert}")
                if cls.contact:
                    phi = classifier_contact_form(P, cls, seed=local_seed)
                    if not verify_contact_form(alg, phi):
                        report("contact-witness", "classifier form has zero determinant")
                    if cycle_obstruction(P) is not None:
                        report("contact-vs-cycle", "contact verdict with an ext cycle")
                    if formula != 1:
                        report("contact-index", f"contact verdict with index {formula}")
                elif alg.dim % 2 == 1:
                    # a full rank mod p proves a witness on its own; a draw
                    # that looks singular mod p is one more failed sample
                    rng = random.Random(local_seed)
                    for _ in range(2):
                        phi = random_functional(alg, rng, bound)
                        rows, _ = kirillov_rows(alg, phi, bordered=True)
                        if rank_mod_p(rows) == alg.dim + 1:
                            report("noncontact-witness", "sampled witness on a NotContact verdict")
                            break
            elif cls.contact:
                report("trivial-contact", "single point classified contact")

            counts["classes"] += 1
            row["classes"] += 1
            if cls.contact:
                counts["contact"] += 1
                row["contact"] += 1
            elif frob:
                counts["frobenius"] += 1
                row["frobenius"] += 1
            else:
                counts["neither"] += 1
        per_n.append(row)
    return {
        "max_n": max_n,
        "seed": seed,
        "trials": trials,
        "sample_bound": bound,
        "counts": counts,
        "per_n": per_n,
        "discrepancy_count": len(discrepancies),
        "discrepancies": discrepancies,
    }
