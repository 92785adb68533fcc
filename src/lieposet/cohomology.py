"""Low-degree Lie algebra cohomology with adjoint coefficients.

Exact ranks of the differentials d0: g -> Hom(g, g), d1, d2 give the
cohomology dimensions by rank-nullity.  Each differential is assembled from
the nonzero entries of the algebra's integer structure-constant table, one
sparse row per basis cochain: the table is the bracket scaled by the
algebra's denominator (1 for poset algebras), which scales every
differential by the same factor and leaves every rank unchanged.  For poset
algebras the differential preserves torus weight, so rows of different
weight share no column and the elimination never mixes them.
"""

from __future__ import annotations

from itertools import combinations

from .errors import SizeBound
from .liealg import LieAlgebra
from .linalg import exact_rank

CE_DIM_BOUND = 14


def _differential_rank(alg: LieAlgebra, k: int) -> int:
    """Rank of d_k: C^k -> C^(k+1) on the integer table, by the general
    formula

        (d f)(x_0..x_k) = sum_i (-1)^i [x_i, f(..no x_i..)]
                          + sum_{i<j} (-1)^(i+j) f([x_i, x_j], ..no x_i, x_j..)

    applied to each basis cochain e_S->b_t (S a sorted k-set of basis
    indices).  Sets are bitmasks, so the position of an index in a set is
    the count of set bits below it.  The row of e_S->b_t holds the
    coefficient of e_T->b_s under the key T * dim + s."""
    dim = alg.dim
    # ad_into[t]: (x, [b_x, b_t]) for every x that brackets b_t nontrivially;
    # pairs_into[m]: (u, v, c) for every u < v whose [b_u, b_v] holds c b_m
    ad_into: list[list[tuple[int, dict[int, int]]]] = [[] for _ in range(dim)]
    pairs_into: list[list[tuple[int, int, int]]] = [[] for _ in range(dim)]
    for (u, v), vec in alg.brackets.items():
        ad_into[v].append((u, vec))
        ad_into[u].append((v, {s: -c for s, c in vec.items()}))
        for m, c in vec.items():
            pairs_into[m].append((u, v, c))
    rows = []
    for S in combinations(range(dim), k):
        mask = sum(1 << m for m in S)
        # the second sum is e_S([x_i, x_j], ...): nonzero only at target t,
        # for the T holding S without some m plus the pair (u, v)
        pair_terms: dict[int, int] = {}
        for m in S:
            rest = mask ^ 1 << m
            odd = (rest & (1 << m) - 1).bit_count()
            for u, v, c in pairs_into[m]:
                if rest >> u & 1 or rest >> v & 1:
                    continue
                T = rest | 1 << u | 1 << v
                odd_T = odd + (T & (1 << u) - 1).bit_count() + (T & (1 << v) - 1).bit_count()
                pair_terms[T] = pair_terms.get(T, 0) + (-c if odd_T & 1 else c)
        for t in range(dim):
            row = {T * dim + t: c for T, c in pair_terms.items()}
            for x, vec in ad_into[t]:
                if mask >> x & 1:
                    continue
                base = (mask | 1 << x) * dim
                neg = (mask & (1 << x) - 1).bit_count() & 1
                for s, c in vec.items():
                    row[base + s] = row.get(base + s, 0) + (-c if neg else c)
            rows.append({j: c for j, c in row.items() if c})
    return exact_rank(rows)


def ce_cohomology_dims(alg: LieAlgebra) -> tuple[int, int, int]:
    """(dim H^0, dim H^1, dim H^2) with coefficients in the adjoint module."""
    if alg.dim > CE_DIM_BOUND:
        raise SizeBound(f"cohomology limited to dim <= {CE_DIM_BOUND}")
    dim = alg.dim
    r0, r1, r2 = (_differential_rank(alg, k) for k in range(3))
    h0 = dim - r0
    h1 = dim * dim - r1 - r0
    h2 = dim * (dim * (dim - 1) // 2) - r2 - r1
    return (h0, h1, h2)
