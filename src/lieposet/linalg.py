"""Exact linear algebra over the rationals, plus a small multivariate
polynomial ring for symbolic rank and Pfaffian certificates.

Matrices arrive as sparse rows, one dict of nonzero entries (ints or
Fractions) per row.  Every exact rank is `exact_rank`: forward elimination
over the integers with a column index (`sparse_echelon`), which clears each
row's denominators and keeps it primitive.  `sparse_kernel` adds
back-substitution for each free column, the one step that makes Fractions.
`rank_mod_p` is a sparse elimination over F_p, and `rank_at_least` (with
`nonsingular`, full rank) tries it first and falls back to `exact_rank` on
the same rows only when the rank modulo p falls short.  The one dense
elimination is `exact_determinant`, fraction-free Bareiss elimination on
integer rows, which `lieposet build` and `RationalMatrix.determinant` use.
Both symbolic certificates are principal Pfaffians of a skew matrix, by one
memoized division-free expansion that works over any commutative ring,
polynomials included: `pfaffian_expansion` takes the whole matrix, and
`symbolic_rank` the largest principal submatrix whose Pfaffian is nonzero.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
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

    # -- integerization -----------------------------------------------------

    def _int_rows(self) -> tuple[list[list[int]], list[int]]:
        """Rows scaled to integers; returns (rows, per-row scale factors)."""
        out, scales = [], []
        for row in self.data:
            denom = 1
            for x in row:
                denom = denom * x.denominator // gcd(denom, x.denominator)
            out.append([int(x * denom) for x in row])
            scales.append(denom)
        return out, scales

    # -- elimination ---------------------------------------------------------

    def rank(self) -> int:
        return exact_rank(self._sparse_rows())

    def determinant(self) -> Fraction:
        if self.rows != self.cols:
            raise ShapeMismatch("determinant needs a square matrix")
        rows, scales = self._int_rows()
        return Fraction(exact_determinant(rows), prod(scales))

    def kernel(self) -> list[tuple[Fraction, ...]]:
        """A basis of the right kernel, as `sparse_kernel` gives it."""
        return sparse_kernel(self._sparse_rows(), self.cols)

    def _sparse_rows(self) -> list[dict[int, Fraction]]:
        return [{j: x for j, x in enumerate(row) if x} for row in self.data]


def sparse_echelon(rows: list[dict[int, object]]) -> dict[int, dict[int, int]]:
    """A row echelon form of the matrix whose rows are given as dicts of
    their nonzero entries (ints or Fractions; the rows are left unchanged),
    as pivot column -> pivot row, a primitive integer row whose leftmost
    entry sits in that column.  Its size is the rank.

    Exact forward elimination over the integers: each row is cleared of
    denominators and divided by the gcd of its entries.  An index from each
    column to the live rows holding it is kept up to date on fill and on
    cancellation, so a column's holders are looked up, never searched for.
    Columns are taken in increasing order; the sparsest holder (the lowest
    row on ties) is the pivot, the column is cleared from the other holders
    only, and the pivot row is retired.  The pivot columns are then the
    leftmost independent columns, whichever rows serve as pivots."""
    live = []
    for row in rows:
        d = lcm(*(x.denominator for x in row.values()))
        live.append(_primitive({j: x.numerator * (d // x.denominator) for j, x in row.items() if x}))
    holders: dict[int, set[int]] = {}
    for i, row in enumerate(live):
        for j in row:
            holders.setdefault(j, set()).add(i)
    pivots: dict[int, dict[int, int]] = {}
    for c in sorted(holders):
        held = holders[c]
        if not held:
            continue
        p = min(held, key=lambda i: (len(live[i]), i))
        piv = pivots[c] = live[p]
        for j in piv:
            holders[j].discard(p)
        pc = piv[c]
        for i in list(held):
            row = live[i]
            b = row[c]
            if b % pc:
                g = gcd(pc, b)
                b //= g
                for j in row:
                    row[j] *= pc // g
            else:
                b //= pc
            for j, x in piv.items():
                v = row.get(j, 0) - b * x
                if v:
                    if j not in row:
                        holders[j].add(i)
                    row[j] = v
                else:
                    del row[j]
                    holders[j].discard(i)
            live[i] = _primitive(row)
    return pivots


def _primitive(row: dict[int, int]) -> dict[int, int]:
    g = gcd(*row.values())
    return {j: x // g for j, x in row.items()} if g > 1 else row


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
    given as dicts of their nonzero entries, by sparse elimination over F_p.

    Each row becomes a dict of its nonzero residues.  For each column the
    sparsest live row holding it is the pivot: the column is cleared from
    the other holders, and the pivot row is dropped and counted.  Clearing
    only writes into columns some row already holds, and the rank does not
    depend on the pivot order.  It is always a lower bound on the rational
    rank, with equality unless p divides the relevant minors; callers
    combine it with an upper bound or fall back to exact elimination."""
    p = _MODP_PRIME
    live = [r for row in rows if (r := {j: v for j, x in row.items() if (v := x % p)})]
    rank = 0
    for c in sorted({j for row in live for j in row}):
        holders = [row for row in live if c in row]
        if not holders:
            continue
        piv = min(holders, key=len)
        inv = pow(piv[c], -1, p)
        for row in holders:
            if row is piv:
                continue
            f = row[c] * inv % p
            for j, x in piv.items():
                v = (row.get(j, 0) - f * x) % p
                if v:
                    row[j] = v
                else:
                    del row[j]
        live = [row for row in live if row and row is not piv]
        rank += 1
    return rank


def exact_rank(rows: list[dict[int, object]]) -> int:
    """Rank over Q of the matrix whose rows are given as dicts of their
    nonzero entries (ints or Fractions; left unchanged): the number of
    pivots of `sparse_echelon`."""
    return len(sparse_echelon(rows))


def exact_determinant(int_rows: list[list[int]]) -> int:
    """Determinant of a square integer matrix, by fraction-free Bareiss
    elimination on a copy of its rows: the swap sign times the last pivot,
    or 0 at the first column that holds no pivot.

    A row with a zero in the pivot column is left as it is: Bareiss would
    only multiply it by pivot / previous pivot, and over consecutive steps
    those factors telescope.  So each row keeps the pivot of the step that
    last updated it (`stamp`), and stands for itself times current pivot /
    stamp.  Its next update, (pc * row - ric * pivot row) / stamp, is then
    the Bareiss row exactly, and a row is brought up to date before it
    serves as a pivot.  Below the pivot row every entry left of the pivot
    column is zero, so each update runs over the whole row."""
    n = len(int_rows)
    if any(len(row) != n for row in int_rows):
        raise ShapeMismatch("determinant needs a square matrix")
    rows = [list(row) for row in int_rows]
    stamp = [1] * n
    prev = 1
    sign = 1
    for c in range(n):
        piv = next((i for i in range(c, n) if rows[i][c]), None)
        if piv is None:
            return 0
        if piv != c:
            rows[c], rows[piv] = rows[piv], rows[c]
            stamp[c], stamp[piv] = stamp[piv], stamp[c]
            sign = -sign
        if stamp[c] != prev:
            rows[c] = [a * prev // stamp[c] for a in rows[c]]
        row_c = rows[c]
        pc = row_c[c]
        for i in range(c + 1, n):
            ric = rows[i][c]
            if ric:
                rows[i] = [(pc * a - ric * b) // stamp[i] for a, b in zip(rows[i], row_c)]
                stamp[i] = pc
        prev = pc
    return sign * prev


def nonsingular(rows: list[dict[int, int]]) -> bool:
    """det != 0 for a square integer matrix given as dicts of its nonzero
    entries, one per row: full rank, by `rank_at_least`."""
    n = len(rows)
    if any(row and (min(row) < 0 or max(row) >= n) for row in rows):
        raise ShapeMismatch("nonsingularity needs a square matrix")
    return rank_at_least(rows, n)


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


def pfaffian_expansion(mat, zero):
    """Pfaffian of a skew matrix of even size, by `_principal_pfaffians`
    (`zero` for the empty matrix).  The independent oracle for numeric
    Pfaffians and the symbolic identically-zero certificate."""
    n = len(mat)
    if n % 2:
        raise ShapeMismatch("pfaffian needs even size")
    return _principal_pfaffians(mat)(tuple(range(n))) if n else zero


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
