"""Shared fixtures and independent brute-force oracles for the test suite.

The oracles here deliberately avoid the library's own elimination and
canonicalization code paths, so that every exact claim is checked twice.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import permutations

import pytest

from lieposet.posets import Poset, make_poset


# ---------------------------------------------------------------------------
# poset oracles


def brute_force_isomorphic(P: Poset, Q: Poset) -> bool:
    """Isomorphism by trying every bijection."""
    if P.n != Q.n or len(P.pairs) != len(Q.pairs):
        return False
    qpairs = set(Q.pairs)
    for perm in permutations(range(1, Q.n + 1)):
        send = dict(zip(range(1, P.n + 1), perm))
        if all((send[a], send[b]) in qpairs for a, b in P.pairs):
            return True
    return False


def brute_force_labeled_posets(n: int):
    """Every transitively closed strict relation on {1..n} with natural
    labels, by filtering all subsets of the i < j pairs."""
    slots = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    out = []
    for mask in range(1 << len(slots)):
        rel = {slots[k] for k in range(len(slots)) if mask >> k & 1}
        if all((a, d) in rel for a, b in rel for c, d in rel if b == c):
            out.append(rel)
    return out


def brute_force_least_pred_masks(n: int, rel) -> tuple[int, ...]:
    """The least pred-mask tuple (bit i-1 of entry j-1 set iff i < j) over
    every relabelling of the relation `rel` on {1..n} that keeps it natural."""
    best = None
    for perm in permutations(range(1, n + 1)):
        if all(perm[a - 1] < perm[b - 1] for a, b in rel):
            masks = [0] * n
            for a, b in rel:
                masks[perm[b - 1] - 1] |= 1 << (perm[a - 1] - 1)
            if best is None or tuple(masks) < best:
                best = tuple(masks)
    return best


def brute_force_class_count(n: int, max_height=None) -> int:
    reps: list[Poset] = []
    for rel in brute_force_labeled_posets(n):
        P = make_poset(n, rel)
        if max_height is not None and P.height > max_height:
            continue
        if not any(brute_force_isomorphic(P, Q) for Q in reps):
            reps.append(P)
    return len(reps)


# ---------------------------------------------------------------------------
# exact linear-algebra oracles


def sparse_rows(rows) -> list[dict[int, int]]:
    """Dense rows as the dicts of nonzero entries that `rank_mod_p`,
    `nonsingular` and `rank_at_least` take."""
    return [{j: x for j, x in enumerate(row) if x} for row in rows]


def det_by_cofactors(rows) -> Fraction:
    n = len(rows)
    if n == 0:
        return Fraction(1)
    if n == 1:
        return Fraction(rows[0][0])
    total = Fraction(0)
    for j in range(n):
        if not rows[0][j]:
            continue
        minor = [r[:j] + r[j + 1:] for r in rows[1:]]
        total += (-1) ** j * Fraction(rows[0][j]) * det_by_cofactors(minor)
    return total


def pfaffian_by_pairings(rows) -> Fraction:
    """Sum over perfect matchings with crossing signs."""
    n = len(rows)
    if n % 2:
        raise ValueError("even size required")

    def rec(items):
        if not items:
            return Fraction(1)
        first, rest = items[0], items[1:]
        total = Fraction(0)
        sign = 1
        for k in range(len(rest)):
            entry = Fraction(rows[first][rest[k]])
            if entry:
                total += sign * entry * rec(rest[:k] + rest[k + 1:])
            sign = -sign
        return total

    return rec(tuple(range(n)))


def random_rational_matrix(rng: random.Random, rows: int, cols: int, span: int = 6):
    return [
        [Fraction(rng.randint(-span, span), rng.randint(1, 4)) for _ in range(cols)]
        for _ in range(rows)
    ]


def sympy_nullspace(rows) -> list[tuple[Fraction, ...]]:
    """Right kernel basis by sympy's own elimination, free coordinates 1."""
    import sympy

    basis = sympy.Matrix([[sympy.Rational(str(x)) for x in row] for row in rows]).nullspace()
    return [tuple(Fraction(str(x)) for x in v) for v in basis]


def ce_ranks_sympy(g) -> tuple[int, int, int]:
    """Ranks of d0, d1, d2 of the adjoint Chevalley-Eilenberg complex,
    assembled from bracket() alone by the general formula

        (d f)(x_0..x_k) = sum_i (-1)^i [x_i, f(..no x_i..)]
                          + sum_{i<j} (-1)^(i+j) f([x_i, x_j], ..no x_i, x_j..)

    (for k = 1: d f(x, y) = [x, f(y)] - [y, f(x)] - f([x, y])), one sympy
    column per basis cochain e_{S -> t} and one row per (T, s) with
    |T| = k + 1, ranked by sympy's sparse elimination over QQ.  Shares no
    code with the assembly in `cohomology`, which works on the integer
    table and bitmask signs."""
    from itertools import combinations

    from sympy import QQ
    from sympy.polys.matrices import DomainMatrix

    n = g.dim

    def ad(x: int, v: dict) -> dict:
        # [b_x, v] for a coordinate vector v
        out: dict = {}
        for m, c in v.items():
            for t, e in g.bracket(x, m).items():
                out[t] = out.get(t, 0) + c * e
        return out

    def f_on(S: tuple, t: int, args: tuple) -> dict:
        # e_{S -> t} on basis elements: the sign of the sorting permutation
        if len(set(args)) < len(args) or tuple(sorted(args)) != S:
            return {}
        inversions = sum(a > b for i, a in enumerate(args) for b in args[i + 1:])
        return {t: (-1) ** inversions}

    def f_lin(S: tuple, t: int, first: dict, rest: tuple) -> dict:
        # e_{S -> t}(sum_m first[m] b_m, rest...)
        out: dict = {}
        for m, c in first.items():
            for s, e in f_on(S, t, (m, *rest)).items():
                out[s] = out.get(s, 0) + c * e
        return out

    def d_matrix(k: int):
        cols = [(S, t) for S in combinations(range(n), k) for t in range(n)]
        tuples = list(combinations(range(n), k + 1))
        entries: dict = {}
        for j, (S, t) in enumerate(cols):
            for a, T in enumerate(tuples):
                acc: dict = {}
                for i, x in enumerate(T):
                    term = ad(x, f_on(S, t, T[:i] + T[i + 1:]))
                    for s, c in term.items():
                        acc[s] = acc.get(s, 0) + (-1) ** i * c
                for i, j2 in combinations(range(k + 1), 2):
                    rest = tuple(y for m, y in enumerate(T) if m not in (i, j2))
                    term = f_lin(S, t, g.bracket(T[i], T[j2]), rest)
                    for s, c in term.items():
                        acc[s] = acc.get(s, 0) + (-1) ** (i + j2) * c
                for s, c in acc.items():
                    if c:
                        c = Fraction(c)
                        entries.setdefault(a * n + s, {})[j] = QQ(c.numerator, c.denominator)
        return DomainMatrix(entries, (len(tuples) * n, len(cols)), QQ)

    return tuple(d_matrix(k).rank() for k in range(3))


def grow_h2_poset(rng: random.Random, min_n: int, contact: bool) -> Poset:
    """A connected height-two poset of at least min_n elements, glued from
    random blocks by a replay (`grow_h2_replay`)."""
    return grow_h2_replay(rng, min_n, contact).poset


def grow_h2_replay(rng: random.Random, min_n: int, contact: bool):
    """A replay whose poset is connected of height two with at least min_n
    elements, glued from random blocks: with contact=True only contact
    rules and the blocks P11, P112, P211 on top of P111 (contact by
    construction, with the P(1,1,1) block first), otherwise any block and
    rule.  Steps the rules reject are skipped."""
    from lieposet.contact import BLOCKS, CONTACT_RULES, RULES, GluingStep, Replay
    from lieposet.contact import rule_applies_to_block
    from lieposet.errors import PolarityMismatch, RulePreconditionViolated

    kinds = ("P11", "P112", "P211") if contact else tuple(BLOCKS)
    rules = CONTACT_RULES if contact else tuple(RULES)
    rep = Replay.start("P111" if contact else rng.choice(kinds))
    while rep.poset.n < min_n:
        kind = rng.choice(kinds)
        rule = RULES[rng.choice([r for r in rules if rule_applies_to_block(r, kind)])]
        ext = rep.poset.minimal + rep.poset.maximal
        step = GluingStep(
            kind,
            rule.tag,
            target_x=rng.choice(ext) if rule.id_c else None,
            target_y=rng.choice(ext) if rule.id_a1 else None,
            target_z=rng.choice(ext) if rule.id_a2 else None,
        )
        try:
            rep = rep.apply(step)
        except (RulePreconditionViolated, PolarityMismatch):
            continue
    return rep


def random_skew_matrix(rng: random.Random, n: int, span: int = 6):
    rows = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            v = Fraction(rng.randint(-span, span))
            rows[i][j] = v
            rows[j][i] = -v
    return rows


# ---------------------------------------------------------------------------
# shared poset zoo


@pytest.fixture(scope="session")
def fork_poset():
    """Four elements, 1 < 2 < {3, 4}."""
    return make_poset(4, [(1, 2), (2, 3), (2, 4)])


@pytest.fixture(scope="session")
def six_element_cycle_poset():
    """1 < {3, 4} < 5, 2 < 4 < 6: its extremal Hasse diagram is a 4-cycle."""
    return make_poset(6, [(1, 3), (1, 4), (2, 4), (3, 5), (4, 5), (4, 6)])


@pytest.fixture(scope="session")
def crown_poset():
    """Height-one 4-crown: {1, 2} < {3, 4}."""
    return make_poset(4, [(1, 3), (1, 4), (2, 3), (2, 4)])


@pytest.fixture(scope="session")
def two_tree_forest():
    """Two disjoint 6-element Frobenius trees (12 elements total)."""
    from lieposet.posets import disjoint_sum

    a = make_poset(6, [(1, 2), (2, 4), (2, 5), (1, 3), (3, 5), (3, 6)])
    b = make_poset(6, [(1, 3), (3, 5), (3, 6), (1, 4), (4, 6), (2, 4)])
    return disjoint_sum(a, b)


@pytest.fixture(scope="session")
def index_one_noncontact_algebra():
    """Seven-dimensional algebra with index one that carries no contact form."""
    from lieposet.liealg import build_raw

    return build_raw(
        7,
        [
            (1, 4, {"4": 2}),
            (2, 4, {"4": 1}),
            (1, 5, {"5": 1}),
            (2, 5, {"5": 2}),
            (3, 5, {"5": 1}),
            (1, 6, {"6": 1}),
            (3, 6, {"6": 1}),
            (2, 7, {"7": 1}),
            (3, 7, {"7": 2}),
        ],
    )


def cycles_equal(a, b) -> bool:
    """Equality of vertex cycles up to rotation and reflection."""
    if len(a) != len(b) or set(a) != set(b):
        return False
    n = len(a)
    doubled = list(b) + list(b)
    fwd = any(doubled[k:k + n] == list(a) for k in range(n))
    rev = any(doubled[k:k + n] == list(reversed(a)) for k in range(n))
    return fwd or rev
