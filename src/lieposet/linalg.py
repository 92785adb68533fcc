"""Exact linear algebra over the rationals, plus a small multivariate
polynomial ring for symbolic rank and Pfaffian certificates.

Matrices arrive as sparse rows, one dict of nonzero entries (ints or
Fractions) per row.  There is one elimination, `_eliminate`, in one of two
arithmetics: over F_p it gives `rank_mod_p`; over the integers it gives
`sparse_echelon`, and from it `exact_rank`, `sparse_kernel` (which adds
back-substitution, the one step that makes Fractions) and
`sparse_determinant`.  `rank_at_least` (with `nonsingular`, full rank)
tries the rank modulo p first and falls back to the exact rank on the
same rows only when it falls short.
Both symbolic certificates are principal Pfaffians of a skew matrix, by one
memoized division-free expansion that works over any commutative ring,
polynomials included: `pfaffian_expansion` takes the whole matrix, and
`symbolic_rank` the largest principal submatrix whose Pfaffian is nonzero.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from collections import defaultdict
from math import gcd, lcm, prod
from typing import Sequence

from .errors import ShapeMismatch


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    return Fraction(x)


class RationalMatrix:
    """An immutable matrix with exact rational entries."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, data: Sequence[Sequence]):
        rows = tuple(tuple(_as_fraction(x) for x in row) for row in data)
        if rows and any(len(r) != len(rows[0]) for r in rows):
            raise ShapeMismatch("ragged rows")
        object.__setattr__(self, "data", rows)
        object.__setattr__(self, "rows", len(rows))
        object.__setattr__(self, "cols", len(rows[0]) if rows else 0)

    def __setattr__(self, *args):
        raise AttributeError("RationalMatrix is immutable")

    def __getitem__(self, ij):
        i, j = ij
        return self.data[i][j]

    def __eq__(self, other):
        return isinstance(other, RationalMatrix) and self.data == other.data

    def __hash__(self):
        return hash(self.data)

    def __repr__(self):
        return f"RationalMatrix({[list(map(str, r)) for r in self.data]})"

    # -- elimination ---------------------------------------------------------

    def rank(self) -> int:
        return exact_rank(self._sparse_rows())

    def determinant(self) -> Fraction:
        if self.rows != self.cols:
            raise ShapeMismatch("determinant needs a square matrix")
        return sparse_determinant(self._sparse_rows())

    def kernel(self) -> list[tuple[Fraction, ...]]:
        """A basis of the right kernel, as `sparse_kernel` gives it."""
        return sparse_kernel(self._sparse_rows(), self.cols)

    def _sparse_rows(self) -> list[dict[int, Fraction]]:
        return [{j: x for j, x in enumerate(row) if x} for row in self.data]


def _eliminate(rows: list[dict[int, object]], p: int = 0):
    """Forward elimination over F_p for a prime p, or over the integers for
    p = 0, of the rows given as dicts of their nonzero entries (left
    unchanged; Fractions only over the integers).  Over the integers rows
    are cleared of denominators and kept primitive, and a holder is
    multiplied by pivot / gcd(pivot, entry) before an update if need be.

    An index from each column to the live rows holding it is kept up to
    date on fill and cancellation.  Columns are taken in increasing order,
    the sparsest holder (lowest row on ties) is the pivot, the others are
    cleared, and the pivot row is retired; so the pivot columns are the
    leftmost independent ones, each pivot row starting in its column.

    Returns pivot column -> (input row index, pivot row) in column order,
    and over the integers lists `up`, `down`: row i was multiplied by up[i]
    and divided by down[i] in all (None over F_p)."""
    if p:
        live = [{j: v for j, x in row.items() if (v := x % p)} for row in rows]
        up = down = None
    else:
        up = [lcm(*(x.denominator for x in row.values())) for row in rows]
        down = [1] * len(rows)
        live = [
            {j: x.numerator * (d // x.denominator) for j, x in row.items() if x}
            for row, d in zip(rows, up)
        ]
        for i, row in enumerate(live):
            _divide_out(row, down, i)
    holders: dict[int, set[int]] = defaultdict(set)
    for i, row in enumerate(live):
        for j in row:
            holders[j].add(i)
    pivots: dict[int, tuple[int, dict[int, int]]] = {}
    for c in sorted(holders):
        held = holders[c]
        if not held:
            continue
        r = min(held, key=lambda i: (len(live[i]), i))
        piv = live[r]
        pivots[c] = (r, piv)
        for j in piv:
            holders[j].discard(r)
        if not held:  # the pivot was the only holder
            continue
        pc = piv[c]
        rest = [(j, x) for j, x in piv.items() if j != c]
        if p:
            inv = pow(pc, -1, p)
        # `rest` skips column c, so `held` holds still until it is cleared
        for i in held:
            row = live[i]
            b = row.pop(c)
            # one loop per arithmetic, so no entry pays for the test
            if p:
                b = b * inv % p
                for j, x in rest:
                    v = (row.get(j, 0) - b * x) % p
                    if v:
                        if j not in row:
                            holders[j].add(i)
                        row[j] = v
                    else:
                        del row[j]
                        holders[j].discard(i)
            else:
                if b % pc:
                    g = gcd(pc, b)
                    b //= g
                    a = pc // g
                    for j in row:
                        row[j] *= a
                    up[i] *= a
                else:
                    b //= pc
                for j, x in rest:
                    v = row.get(j, 0) - b * x
                    if v:
                        if j not in row:
                            holders[j].add(i)
                        row[j] = v
                    else:
                        del row[j]
                        holders[j].discard(i)
                _divide_out(row, down, i)
        held.clear()
    return pivots, up, down


def _divide_out(row: dict[int, int], down: list[int], i: int) -> None:
    """Divide row i by the gcd of its entries, in place, and record it."""
    g = gcd(*row.values())
    if g > 1:
        for j in row:
            row[j] //= g
        down[i] *= g


def sparse_echelon(rows: list[dict[int, object]]) -> dict[int, dict[int, int]]:
    """Row echelon form over the integers by `_eliminate`: pivot column ->
    pivot row, a primitive integer row whose leftmost entry sits in that
    column.  Its size is the rank."""
    return {c: piv for c, (_, piv) in _eliminate(rows)[0].items()}


def sparse_kernel(rows: list[dict[int, object]], ncols: int) -> list[tuple[Fraction, ...]]:
    """A basis of the right kernel of the matrix whose rows are given as
    dicts of their nonzero entries (ints or Fractions; left unchanged), one
    vector per free column, with the free coordinate set to 1 and the other
    free coordinates 0 (deterministic order).

    Forward elimination (`sparse_echelon`), then back-substitution over the
    echelon for each free column: the pivot rows are solved from the
    highest pivot column down, skipping those right of the free column,
    which hold nothing at or left of it.  The vectors are those read off
    the reduced row echelon form, which is unique."""
    pivots = sparse_echelon(rows)
    down = sorted(pivots, reverse=True)
    basis = []
    for f in range(ncols):
        if f in pivots:
            continue
        x = {f: Fraction(1)}
        for pc in down:
            if pc > f:
                continue
            piv = pivots[pc]
            s = sum(v * x[j] for j, v in piv.items() if j in x)
            if s:
                x[pc] = -s / piv[pc]
        v = [Fraction(0)] * ncols
        for j, val in x.items():
            v[j] = val
        basis.append(tuple(v))
    return basis


# A fixed prime, so every rank mod p, and with it every sampled verdict
# and every report, reproduces.
_MODP_PRIME = 2147483629


def rank_mod_p(rows: list[dict[int, int]]) -> int:
    """Rank modulo a fixed prime p of an integer matrix whose rows are
    given as dicts of their nonzero entries, by `_eliminate` over F_p.  It
    is always a lower bound on the rational rank, with equality unless p
    divides the relevant minors; callers combine it with an upper bound or
    fall back to exact elimination."""
    return len(_eliminate(rows, _MODP_PRIME)[0])


def exact_rank(rows: list[dict[int, object]]) -> int:
    """Rank over Q of the matrix whose rows are given as dicts of their
    nonzero entries (ints or Fractions; left unchanged): the number of
    pivots of `sparse_echelon`."""
    return len(sparse_echelon(rows))


def sparse_determinant(rows: list[dict[int, object]]) -> Fraction:
    """Determinant of a square matrix given as sparse rows (ints or
    Fractions), by `_eliminate` over the integers: 0 below full rank, else
    the sign of the pivot-row order times the product of the pivots (the
    pivot rows in column order are upper triangular), divided by the
    factors the rows were scaled by."""
    _check_square(rows, "determinant")
    pivots, up, down = _eliminate(rows)
    n = len(rows)
    if len(pivots) < n:
        return Fraction(0)
    order = [r for r, _ in pivots.values()]
    sign = 1
    for c in range(n):  # sort the rows into column order by swaps
        while order[c] != c:
            r = order[c]
            order[c], order[r] = order[r], r
            sign = -sign
    top = sign * prod(piv[c] for c, (_, piv) in pivots.items()) * prod(down)
    return Fraction(top, prod(up))


def exact_determinant(int_rows: list[list[int]]) -> int:
    """Determinant of a square integer matrix given as dense rows, by
    `sparse_determinant`."""
    if any(len(row) != len(int_rows) for row in int_rows):
        raise ShapeMismatch("determinant needs a square matrix")
    return int(sparse_determinant([{j: x for j, x in enumerate(row) if x} for row in int_rows]))


def _check_square(rows: list[dict[int, object]], what: str) -> None:
    n = len(rows)
    if any(row and (min(row) < 0 or max(row) >= n) for row in rows):
        raise ShapeMismatch(f"{what} needs a square matrix")


def nonsingular(rows: list[dict[int, int]]) -> bool:
    """det != 0 for a square integer matrix given as dicts of its nonzero
    entries, one per row: full rank, by `rank_at_least`."""
    _check_square(rows, "nonsingularity")
    return rank_at_least(rows, len(rows))


def rank_at_least(rows: list[dict[int, int]], k: int) -> bool:
    """rank >= k for an integer matrix given as dicts of its nonzero
    entries.  The rank modulo p decides at once when it reaches k;
    otherwise `exact_rank` decides on the same sparse rows."""
    return rank_mod_p(rows) >= k or exact_rank(rows) >= k


def _principal_pfaffians(mat):
    """The Pfaffian of each principal submatrix of the skew matrix `mat`,
    as a function of its increasing tuple of (an even number, at least two,
    of) row indices, by expansion along the first of them.

    One memo serves every subset, so a sub-Pfaffian shared by several
    principal submatrices is expanded once.  Division-free, so it works
    over any commutative ring: entries need only +, -, * and truth, and
    the diagonal entry mat[0][0] serves as the ring's zero."""
    zero = mat[0][0]
    memo: dict[tuple, object] = {}

    def pf(cols: tuple) -> object:
        if len(cols) == 2:
            return mat[cols[0]][cols[1]]
        out = memo.get(cols)
        if out is None:
            a, rest = cols[0], cols[1:]
            out = zero
            for t, b in enumerate(rest):
                if mat[a][b]:
                    term = mat[a][b] * pf(rest[:t] + rest[t + 1:])
                    out = out - term if t % 2 else out + term
            memo[cols] = out
        return out

    return pf


def pfaffian_expansion(mat):
    """Pfaffian of a skew matrix of even size, by `_principal_pfaffians`
    (1 for the empty matrix).  The independent oracle for numeric
    Pfaffians and the symbolic identically-zero certificate."""
    n = len(mat)
    if n % 2:
        raise ShapeMismatch("pfaffian needs even size")
    return _principal_pfaffians(mat)(tuple(range(n))) if n else 1


def symbolic_rank(mat) -> int:
    """Rank of a skew-symmetric matrix (ints, Fractions or `Poly`s, the
    latter over the rational function field): the largest size of a
    principal submatrix whose Pfaffian is nonzero, which is exactly the
    rank of a skew matrix.  Sizes are tried from the largest even one down,
    over one shared memo of sub-Pfaffians."""
    n = len(mat)
    if any(len(row) != n for row in mat) or any(
        mat[i][j] + mat[j][i] for i in range(n) for j in range(i, n)
    ):
        raise ShapeMismatch("symbolic rank needs a square skew-symmetric matrix")
    if n < 2:
        return 0
    pf = _principal_pfaffians(mat)
    for k in range(n - n % 2, 0, -2):
        if any(pf(cols) for cols in combinations(range(n), k)):
            return k
    return 0


# ---------------------------------------------------------------------------
# small multivariate polynomials (for symbolic certificates)


class Poly:
    """Multivariate polynomial with Fraction coefficients and a fixed number
    of variables; monomials are dense exponent tuples."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: dict | None = None):
        self.nvars = nvars
        self.terms = {m: c for m, c in (terms or {}).items() if c}

    @classmethod
    def zero(cls, nvars: int) -> "Poly":
        return cls(nvars)

    @classmethod
    def variable(cls, i: int, nvars: int) -> "Poly":
        mono = tuple(1 if k == i else 0 for k in range(nvars))
        return cls(nvars, {mono: Fraction(1)})

    def __bool__(self):
        return bool(self.terms)

    def __add__(self, other: "Poly") -> "Poly":
        out = dict(self.terms)
        for m, c in other.terms.items():
            out[m] = out.get(m, Fraction(0)) + c
        return Poly(self.nvars, out)

    def __sub__(self, other: "Poly") -> "Poly":
        out = dict(self.terms)
        for m, c in other.terms.items():
            out[m] = out.get(m, Fraction(0)) - c
        return Poly(self.nvars, out)

    def __neg__(self) -> "Poly":
        return Poly(self.nvars, {m: -c for m, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, Poly):
            out: dict[tuple, Fraction] = {}
            for m1, c1 in self.terms.items():
                for m2, c2 in other.terms.items():
                    m = tuple(a + b for a, b in zip(m1, m2))
                    out[m] = out.get(m, Fraction(0)) + c1 * c2
            return Poly(self.nvars, out)
        c = _as_fraction(other)
        return Poly(self.nvars, {m: v * c for m, v in self.terms.items()})

    __rmul__ = __mul__

    @staticmethod
    def _key(mono: tuple) -> tuple:
        return (sum(mono), mono)  # graded lexicographic

    def __repr__(self):
        if not self.terms:
            return "Poly(0)"
        parts = []
        for m in sorted(self.terms, key=self._key, reverse=True):
            c = self.terms[m]
            vars_part = "*".join(
                f"x{i}" + (f"^{e}" if e > 1 else "")
                for i, e in enumerate(m)
                if e
            )
            parts.append(f"{c}" + (f"*{vars_part}" if vars_part else ""))
        return "Poly(" + " + ".join(parts) + ")"
