"""Low-degree Lie algebra cohomology with adjoint coefficients.

Exact ranks of the differentials d0: g -> Hom(g, g), d1, d2 give the
cohomology dimensions by rank-nullity.  The differentials are assembled on
the algebra's integer structure-constant table: it is the bracket scaled
by the algebra's denominator (1 for poset algebras), which scales every
differential by the same factor and leaves every rank unchanged.  For
poset algebras the cochain spaces split under the diagonal torus into
weight blocks that the differential preserves, so each rank is a sum of
small exact integer ranks; raw algebras fall back to a single block.
"""

from __future__ import annotations

from itertools import combinations

from .errors import InternalInvariant, SizeBound
from .liealg import DiagDiff, Elem, LieAlgebra, RawBasis
from .linalg import exact_rank

CE_DIM_BOUND = 14


def _basis_weights(alg: LieAlgebra) -> list[int]:
    """Torus weight of each basis element: e_p - e_q for E_{p,q}, 0 for the
    diagonal, and 0 for every element of a raw algebra (a single block).

    A weight vector (x_1, ..., x_n) is encoded as the integer sum of
    x_p 16^(p-1).  A cochain of degree at most 3 has weight entries in
    [-4, 4], and such digits never carry, so equal codes mean equal
    weights."""
    out = []
    for label in alg.basis:
        if isinstance(label, Elem):
            out.append(16 ** (label.p - 1) - 16 ** (label.q - 1))
        elif isinstance(label, (DiagDiff, RawBasis)):
            out.append(0)
        else:
            raise InternalInvariant(f"unexpected basis label {label!r}")
    return out


def _weight_blocks(w: list[int], degree: int) -> dict[int, list[tuple]]:
    """The basis cochains (inputs..., target) of C^degree, with sorted
    inputs, grouped by their weight w[target] - sum of w[inputs]."""
    blocks: dict[int, list[tuple]] = {}
    for ins in combinations(range(len(w)), degree):
        base = sum(w[i] for i in ins)
        for t, wt in enumerate(w):
            blocks.setdefault(wt - base, []).append((*ins, t))
    return blocks


def _blocked_rank(cols_by_w, rows_by_w, entry) -> int:
    total = 0
    for w, cols in cols_by_w.items():
        rows = rows_by_w.get(w)
        if rows:
            total += exact_rank([[entry(rk, ck) for ck in cols] for rk in rows])
    return total


def ce_cohomology_dims(alg: LieAlgebra) -> tuple[int, int, int]:
    """(dim H^0, dim H^1, dim H^2) with coefficients in the adjoint module."""
    if alg.dim > CE_DIM_BOUND:
        raise SizeBound(f"cohomology limited to dim <= {CE_DIM_BOUND}")
    dim = alg.dim
    if dim == 0:
        return (0, 0, 0)
    # table[i][j][t]: coefficient of b_t in the integer table's [b_i, b_j]
    table = [[[0] * dim for _ in range(dim)] for _ in range(dim)]
    for (i, j), vec in alg.brackets.items():
        for t, c in vec.items():
            table[i][j][t] = c
            table[j][i][t] = -c
    w = _basis_weights(alg)
    c0, c1, c2, c3 = (_weight_blocks(w, k) for k in range(4))

    # d0: columns = basis elements, rows = (i, target)
    def d0_entry(row, col):
        i, t = row
        return table[i][col[0]][t]

    r0 = _blocked_rank(c0, c1, d0_entry)

    # d1: columns = C^1 basis (a -> t), rows = (p < q, target)
    def d1_entry(row, col):
        p, q, s = row
        a, t = col
        val = 0
        if q == a:
            val += table[p][t][s]
        if p == a:
            val -= table[q][t][s]
        if s == t:
            val -= table[p][q][a]
        return val

    r1 = _blocked_rank(c1, c2, d1_entry)

    # d2: columns = C^2 basis ((a < b), t), rows = ((p < q < r), target)
    def d2_entry(row, col):
        p, q, r, s = row
        a, b, t = col
        val = 0
        if q == a and r == b:
            val += table[p][t][s]
        if p == a:
            if r == b:
                val -= table[q][t][s]
            elif q == b:
                val += table[r][t][s]
        if s == t:
            for u, v, x, sg in ((p, q, r, -1), (p, r, q, 1), (q, r, p, -1)):
                if x == b:
                    val += sg * table[u][v][a]
                elif x == a:
                    val -= sg * table[u][v][b]
        return val

    r2 = _blocked_rank(c2, c3, d2_entry)

    n1 = dim * dim
    n2 = dim * (dim * (dim - 1) // 2)
    h0 = dim - r0
    h1 = n1 - r1 - r0
    h2 = n2 - r2 - r1
    return (h0, h1, h2)
