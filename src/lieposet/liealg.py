"""Matrix Lie algebras over the rationals attached to posets, raw
structure-constant algebras, and the Kirillov-form machinery.

The poset algebra basis is the trace-zero one used throughout:
differences E_{1,1} - E_{p,p} for p = 2..n, then matrix units E_{p,q} for
the strict relations (p, q), in lexicographic order.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Optional, Union

from .errors import (
    EvenDimension,
    HeightBound,
    InternalInvariant,
    JacobiViolation,
    OutOfRange,
    SizeBound,
    TooSmall,
)
from .linalg import Poly, RationalMatrix, exact_rank, rank_mod_p, sparse_kernel, symbolic_rank
from .posets import Poset, _bits, extremal_data, interior_shape, is_forest, json_int, up_down

SYMBOLIC_INDEX_BOUND = 8
JACOBI_CHECK_BOUND = 30


@dataclass(frozen=True)
class DiagDiff:
    """Basis label for E_{1,1} - E_{p,p}, p > 1."""

    p: int

    def __repr__(self):
        return f"D(1,{self.p})"


@dataclass(frozen=True)
class Elem:
    """Basis label for the matrix unit E_{p,q} with p strictly below q."""

    p: int
    q: int

    def __repr__(self):
        return f"E({self.p},{self.q})"


@dataclass(frozen=True)
class RawBasis:
    """Opaque basis label e_i of a raw structure-constant algebra."""

    i: int

    def __repr__(self):
        return f"e{self.i}"


BasisLabel = Union[DiagDiff, Elem, RawBasis]


class LieAlgebra:
    """A Lie algebra given by an ordered basis and its bracket table.

    The structure constants are stored as one integer table over one
    positive denominator d: brackets maps (i, j) with i < j (0-based basis
    indices) to the sparse vector of nonzero ints d [b_i, b_j]; missing
    pairs commute.  d is the lcm of the constants' denominators, so it is 1
    for every poset algebra.  Scaling the bracket by d gives an isomorphic
    algebra (b -> b / d) and scales every Kirillov matrix and every
    Chevalley-Eilenberg differential by d, so ranks, kernels and
    nonsingularity are read off the integer table; bracket() gives the
    constants themselves.  `build_type_a` and `build_raw` build the table.
    """

    __slots__ = ("dim", "basis", "brackets", "denominator", "origin")

    def __init__(self, basis, brackets, origin: Optional[Poset] = None, denominator: int = 1):
        self.basis = tuple(basis)
        self.dim = len(self.basis)
        self.brackets = brackets
        self.denominator = denominator
        self.origin = origin

    def bracket(self, i: int, j: int) -> dict[int, Union[int, Fraction]]:
        """Sparse coordinates of [b_i, b_j] over the basis."""
        if i == j:
            return {}
        vec = self.brackets.get((i, j) if i < j else (j, i), {})
        d = self.denominator
        if d != 1:
            vec = {t: Fraction(c, d) for t, c in vec.items()}
        return vec if i < j else {t: -c for t, c in vec.items()}

    def bracket_coords(self, coords: dict[int, Fraction], j: int) -> dict[int, Fraction]:
        """[sum_k coords[k] b_k, b_j] as sparse coordinates."""
        out: dict[int, Fraction] = {}
        for k, ck in coords.items():
            for t, c in self.bracket(k, j).items():
                v = out.get(t, 0) + ck * c
                if v:
                    out[t] = v
                else:
                    out.pop(t, None)
        return out

    def matrix_entries(self, k: int) -> dict[tuple[int, int], int]:
        """Matrix of the k-th basis element as a sparse (row, col) -> value map."""
        label = self.basis[k]
        if isinstance(label, DiagDiff):
            return {(1, 1): 1, (label.p, label.p): -1}
        if isinstance(label, Elem):
            return {(label.p, label.q): 1}
        raise TypeError("raw algebras have no matrix realization")

    @property
    def is_matrix_based(self) -> bool:
        return self.origin is not None

    def __repr__(self):
        kind = "poset" if self.is_matrix_based else "raw"
        return f"LieAlgebra(dim={self.dim}, {kind})"


def _jacobi_witness(alg: LieAlgebra):
    """First basis triple violating the Jacobi identity, or None."""
    for i in range(alg.dim):
        for j in range(i + 1, alg.dim):
            bij = alg.bracket(i, j)
            for k in range(j + 1, alg.dim):
                acc: dict[int, Fraction] = {}
                for term in (
                    alg.bracket_coords(bij, k),
                    alg.bracket_coords(alg.bracket(j, k), i),
                    alg.bracket_coords(alg.bracket(k, i), j),
                ):
                    for t, c in term.items():
                        acc[t] = acc.get(t, 0) + c
                if any(acc.values()):
                    return (i + 1, j + 1, k + 1)
    return None


def build_type_a(P: Poset) -> LieAlgebra:
    """The trace-zero matrix algebra spanned by the incidence pattern of P,
    under the commutator bracket."""
    if P.n < 2:
        raise TooSmall("need at least two elements for a trace-zero algebra")
    ndiag = P.n - 1
    pos = {pair: ndiag + b for b, pair in enumerate(P.pairs)}
    basis: list[BasisLabel] = [DiagDiff(p) for p in range(2, P.n + 1)]
    basis.extend(Elem(p, q) for p, q in P.pairs)
    brackets: dict[tuple[int, int], dict[int, int]] = {}
    # [D_{1,p}, E_{q,r}] = ([q==1] - [p==q] + [p==r]) E_{q,r}
    for a in range(ndiag):
        p = a + 2
        for (q, r), b in pos.items():
            c = (q == 1) - (p == q) + (p == r)
            if c:
                brackets[(a, b)] = {b: c}
    # [E_{p,q}, E_{r,s}] = d_{qr} E_{p,s} - d_{sp} E_{r,q}.  Relations are
    # sorted and raise labels, so a later E_{r,s} never has s == p: the
    # bracket is E_{p,s} exactly when r == q, and (p, s) is a relation.
    for (p, q), a in pos.items():
        for s in _bits(P.succ[q - 1]):
            brackets[(a, pos[(q, s)])] = {pos[(p, s)]: 1}
    return LieAlgebra(basis, brackets, origin=P)


def build_raw(dim: int, brackets) -> LieAlgebra:
    """Algebra with opaque basis e_1..e_dim from a list of
    (i, j, coords) entries, 1-based; Jacobi is verified for dim <= 30.

    Entries given for both (i, j) and (j, i) must agree under antisymmetry;
    a negative dimension raises OutOfRange.
    """
    if dim < 0:
        raise OutOfRange(f"dimension {dim} is negative")
    table: dict[tuple[int, int], dict[int, Fraction]] = {}
    for i, j, coords in brackets:
        if not (1 <= i <= dim and 1 <= j <= dim):
            raise ValueError(f"bracket indices ({i}, {j}) outside 1..{dim}")
        if i == j:
            if any(Fraction(c) for c in coords.values()):
                raise JacobiViolation((i, i, i), f"[e{i}, e{i}] must vanish")
            continue
        vec = {int(t) - 1: Fraction(c) for t, c in coords.items() if Fraction(c)}
        if any(not 0 <= t < dim for t in vec):
            raise ValueError(f"bracket [e{i}, e{j}] has a target outside 1..{dim}")
        key, flip = ((i - 1, j - 1), False) if i < j else ((j - 1, i - 1), True)
        if flip:
            vec = {t: -c for t, c in vec.items()}
        if key in table and table[key] != vec:
            raise JacobiViolation(
                (i, j, j), f"inconsistent antisymmetric entries for [e{i}, e{j}]"
            )
        table[key] = vec
    d = lcm(*(c.denominator for vec in table.values() for c in vec.values()))
    ints = {k: {t: int(c * d) for t, c in vec.items()} for k, vec in table.items() if vec}
    alg = LieAlgebra([RawBasis(i) for i in range(1, dim + 1)], ints, denominator=d)
    if dim <= JACOBI_CHECK_BOUND:
        witness = _jacobi_witness(alg)
        if witness:
            raise JacobiViolation(witness)
    return alg


def raw_from_json(data: dict) -> LieAlgebra:
    """build_raw from {"dim": d, "brackets": [[i, j, {"t": c, ...}], ...]},
    with integer indices and integer or "a" / "a/b" string coefficients in
    decimal digits (`Fraction` would also expand "1e10000000" into a
    33-million-bit integer); malformed input raises OutOfRange."""
    try:
        dim = json_int(data["dim"])
        entries = []
        for i, j, coords in data["brackets"]:
            vec = {}
            for t, c in coords.items():
                if type(c) is not int and not re.fullmatch(r"[+-]?[0-9]+(/[0-9]+)?", str(c)):
                    raise TypeError(f"coefficient {c!r} is not an integer or a fraction a/b")
                vec[int(t)] = Fraction(c)
            entries.append((json_int(i), json_int(j), vec))
    except (AttributeError, KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise OutOfRange(f"malformed algebra JSON: {exc}") from exc
    return build_raw(dim, entries)


# ---------------------------------------------------------------------------
# one-forms


class Functional:
    """A linear one-form, stored either on matrix-entry duals E*_{i,j}
    (poset algebras) or on basis duals (raw algebras).  Missing positions
    read as zero; int coefficients stay ints, others become Fractions."""

    __slots__ = ("kind", "coeffs")

    def __init__(self, kind: str, coeffs: dict):
        if kind not in ("positions", "basis"):
            raise InternalInvariant(f"unknown functional kind {kind!r}")
        self.kind = kind
        coeffs = {k: v if type(v) is int else Fraction(v) for k, v in coeffs.items()}
        self.coeffs = {k: v for k, v in coeffs.items() if v}

    @classmethod
    def on_positions(cls, coeffs: dict[tuple[int, int], object]) -> "Functional":
        return cls("positions", coeffs)

    @classmethod
    def on_basis(cls, coeffs: dict[int, object]) -> "Functional":
        """Coefficients on basis duals, keyed by 1-based basis index."""
        return cls("basis", coeffs)

    @classmethod
    def zero(cls) -> "Functional":
        return cls("positions", {})

    def value_on_basis(self, alg: LieAlgebra, k: int) -> Union[int, Fraction]:
        get = self.coeffs.get
        if self.kind == "basis":
            return get(k + 1, 0)
        label = alg.basis[k]
        if isinstance(label, DiagDiff):
            return get((1, 1), 0) - get((label.p, label.p), 0)
        if isinstance(label, Elem):
            return get((label.p, label.q), 0)
        raise TypeError("raw algebras have no matrix realization")

    def values(self, alg: LieAlgebra) -> list[Union[int, Fraction]]:
        return [self.value_on_basis(alg, k) for k in range(alg.dim)]

    def to_terms(self) -> list:
        """JSON-ready list of [key..., coefficient-string] terms."""
        if self.kind == "positions":
            return [[i, j, str(c)] for (i, j), c in sorted(self.coeffs.items())]
        return [[k, str(c)] for k, c in sorted(self.coeffs.items())]

    def __repr__(self):
        return f"Functional({self.kind}, {self.coeffs})"


def dual_positions(alg: LieAlgebra) -> list:
    """The duals a functional may carry coefficients on: matrix positions
    (diagonal plus relations) for poset algebras, basis indices for raw."""
    if alg.is_matrix_based:
        P = alg.origin
        return [(i, i) for i in range(1, P.n + 1)] + list(P.pairs)
    return list(range(1, alg.dim + 1))


def random_functional(alg: LieAlgebra, rng: random.Random, bound: int) -> Functional:
    """Uniform integer coefficients in [-bound, bound] on every dual."""
    keys = dual_positions(alg)
    coeffs = {k: rng.randint(-bound, bound) for k in keys}
    if alg.is_matrix_based:
        return Functional.on_positions(coeffs)
    return Functional.on_basis(coeffs)


# ---------------------------------------------------------------------------
# Kirillov machinery


def kirillov_rows(
    alg: LieAlgebra, phi: Functional, bordered: bool = False
) -> tuple[list[dict[int, int]], int]:
    """Integer rows R, each a dict of its nonzero entries by column, and an
    integer s > 0 such that R / s is the Kirillov matrix [phi([b_i, b_j])],
    or with `bordered` that matrix bordered by phi's values (top row
    (0, phi), left column (0, -phi)); the bordered matrix is defined only in
    odd dimension.

    phi's values are cleared by the lcm of their denominators, and the
    entries are taken on the algebra's integer table; the border is
    multiplied by the table's denominator, so that one s fits every entry.
    A uniform positive scale leaves rank and nonsingularity unchanged."""
    if bordered and alg.dim % 2 == 0:
        raise EvenDimension(f"dimension {alg.dim} is even")
    vals = phi.values(alg)
    dv = lcm(*(v.denominator for v in vals))
    ivals = [v.numerator * (dv // v.denominator) for v in vals]
    dc = alg.denominator
    off = 1 if bordered else 0
    rows: list[dict[int, int]] = [{} for _ in range(alg.dim + off)]
    for (i, j), vec in alg.brackets.items():
        if e := sum(c * ivals[t] for t, c in vec.items()):
            rows[i + off][j + off] = e
            rows[j + off][i + off] = -e
    if bordered:
        for k, v in enumerate(ivals, start=1):
            if v:
                rows[0][k] = v * dc
                rows[k][0] = -v * dc
    return rows, dv * dc


def _dense(rows: list[dict[int, int]], s: int) -> RationalMatrix:
    return RationalMatrix([[Fraction(row.get(j, 0), s) for j in range(len(rows))] for row in rows])


def kirillov_matrix(alg: LieAlgebra, phi: Functional) -> RationalMatrix:
    """The skew matrix with (i, j) entry phi([b_i, b_j])."""
    return _dense(*kirillov_rows(alg, phi))


def extended_matrix(alg: LieAlgebra, phi: Functional) -> RationalMatrix:
    """The Kirillov matrix bordered by the coefficient vector of phi;
    defined only in odd dimension."""
    return _dense(*kirillov_rows(alg, phi, bordered=True))


def symbolic_kirillov(alg: LieAlgebra, bordered: bool = False) -> list[list[Poly]]:
    """Kirillov matrix with one polynomial variable per dual coefficient,
    bordered by the generic form's values when `bordered` is set.

    The entries are taken on the integer table, so the body is the
    denominator times the Kirillov matrix; neither its rank nor whether the
    bordered Pfaffian vanishes depends on that scale.
    """
    keys = dual_positions(alg)
    key_index = {k: i for i, k in enumerate(keys)}
    nv = len(keys)

    def basis_poly(k: int) -> Poly:
        if alg.is_matrix_based:
            out = Poly.zero(nv)
            for pos, c in alg.matrix_entries(k).items():
                out = out + Poly.variable(key_index[pos], nv) * c
            return out
        return Poly.variable(key_index[k + 1], nv)

    vals = [basis_poly(k) for k in range(alg.dim)]
    zero = Poly.zero(nv)
    m = [[zero] * alg.dim for _ in range(alg.dim)]
    for (i, j), vec in alg.brackets.items():
        entry = Poly.zero(nv)
        for t, c in vec.items():
            entry = entry + vals[t] * c
        m[i][j] = entry
        m[j][i] = -entry
    if bordered:
        m = [[zero] + vals] + [[-vals[i]] + m[i] for i in range(alg.dim)]
    return m


# ---------------------------------------------------------------------------
# index


@dataclass(frozen=True)
class IndexEstimate:
    """Result of the randomized index computation.

    Each trial draws integer one-form coefficients in [-sample_bound,
    sample_bound] and takes the rank of the Kirillov matrix modulo the prime
    p = 2147483629.  A rank mod p never exceeds the rank over Q, so `value`
    is a provable upper bound on the index.  Provided the algebra's index
    over F_p equals its index over Q, it equals the index except with
    probability at most `failure_bound` (Schwartz-Zippel over the sampling
    range, per trial, compounded over trials).  If the two indices differ,
    the estimate is too large every time: `sweep` reports a
    `randomized-index` discrepancy, and `classify` shows `randomized` above
    `formula`.

    A skew matrix has even rank, so a trial that reaches dim - dim % 2
    proves `value` exact, and the trials after it are not drawn; `trials`
    and `failure_bound` stay those of the full count asked for, and the
    bound still holds.
    """

    value: int
    trials: int
    seed: int
    sample_bound: int
    failure_bound: Fraction

    def __int__(self):
        return self.value


def index(alg: LieAlgebra, trials: int = 3, seed: int = 0, bound: int = 10**6) -> IndexEstimate:
    """dim - (max rank modulo p of the Kirillov matrix over random one-forms),
    taken on the integer rows of `kirillov_rows`; the draws stop once a rank
    reaches the skew-rank ceiling dim - dim % 2."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if alg.dim == 0:
        return IndexEstimate(0, trials, seed, bound, Fraction(0))
    rng = random.Random(seed)
    ceiling = alg.dim - alg.dim % 2
    best = 0
    for _ in range(trials):
        rows, _ = kirillov_rows(alg, random_functional(alg, rng, bound))
        best = max(best, rank_mod_p(rows))
        if best == ceiling:
            break
    per_trial = min(Fraction(alg.dim, bound), Fraction(1))
    return IndexEstimate(alg.dim - best, trials, seed, bound, per_trial**trials)


def index_certified(alg: LieAlgebra) -> int:
    """Exact index by the symbolic rank of the Kirillov matrix over the
    rational function field (its largest nonzero principal Pfaffian);
    desk-scale guard dim <= 8."""
    if alg.dim > SYMBOLIC_INDEX_BOUND:
        raise SizeBound(f"symbolic index limited to dim <= {SYMBOLIC_INDEX_BOUND}")
    return alg.dim - symbolic_rank(symbolic_kirillov(alg))


def index_formula_h2(P: Poset) -> int:
    """Combinatorial index of the poset algebra, valid for height <= 2:
    |Rel_E| - |P| + 2 C - 1 + sum of UD over interior elements."""
    if P.height > 2:
        raise HeightBound("index formula requires height <= 2")
    ed = extremal_data(P)
    total = len(ed.rel_e) - P.n + 2 * P.components - 1
    for j in ed.interior:
        total += up_down(P, j)[2]
    return total


def is_frobenius_h2(P: Poset) -> bool:
    """Index zero, decided combinatorially: every interior neighborhood has
    three extremal elements and the Ext-restricted Hasse diagram is a tree."""
    if P.height > 2:
        raise HeightBound("Frobenius test requires height <= 2")
    for i in P.interior:
        d, _, u = interior_shape(P, i)
        if d + u != 3:
            return False
    # an acyclic diagram on V vertices is a tree exactly when it has V - 1 edges
    acyclic, _ = is_forest(P, restrict_to_ext=True)
    return acyclic and len(extremal_data(P).rel_e) == len(P.ext) - 1


def _center_equations(alg: LieAlgebra) -> list[dict[int, int]]:
    """The equations [z, b_j] = 0 on the coordinates of z, one sparse
    integer row per (other basis element, target); the integer table's
    scale leaves their solutions unchanged."""
    rows: dict[tuple[int, int], dict[int, int]] = {}
    for (i, j), vec in alg.brackets.items():
        # column k = coefficient of b_t in [b_k, b_j]-type equations; each
        # (row, column) is reached by one bracket only
        for t, c in vec.items():
            rows.setdefault((j, t), {})[i] = c
            rows.setdefault((i, t), {})[j] = -c
    return [rows[k] for k in sorted(rows)]


def center(alg: LieAlgebra) -> list[tuple[Fraction, ...]]:
    """Basis of the center, as coordinate vectors over the algebra basis,
    by exact nullspace computation of [z, b_i] = 0 for all i."""
    return sparse_kernel(_center_equations(alg), alg.dim)


def center_dim(alg: LieAlgebra) -> int:
    """dim of the center: dim minus the rank of the same equations, from
    the forward elimination alone, with no basis vector built."""
    return alg.dim - exact_rank(_center_equations(alg))
