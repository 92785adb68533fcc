import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    det_by_cofactors,
    pfaffian_by_pairings,
    random_rational_matrix,
    random_skew_matrix,
    sparse_rows,
    sympy_nullspace,
)
from lieposet.errors import ShapeMismatch
from lieposet.linalg import (
    _MODP_PRIME,
    Poly,
    RationalMatrix,
    exact_determinant,
    exact_rank,
    nonsingular,
    pfaffian_expansion,
    rank_at_least,
    rank_mod_p,
    sparse_determinant,
    sparse_echelon,
    sparse_kernel,
    symbolic_rank,
)


def _specialize(p: Poly, values) -> Fraction:
    """The value of p at the point `values`, summed over its terms."""
    return sum(
        (
            c * math.prod(Fraction(v) ** e for v, e in zip(values, mono))
            for mono, c in p.terms.items()
        ),
        Fraction(0),
    )


class TestRankDetPfaffian:
    def test_two_by_two_skew(self):
        m = RationalMatrix([[0, 2], [-2, 0]])
        assert m.rank() == 2
        assert m.determinant() == 4
        assert pfaffian_expansion([[0, 2], [-2, 0]]) == 2

    def test_zero_three_by_three(self):
        m = RationalMatrix([[0] * 3 for _ in range(3)])
        assert m.rank() == 0
        assert m.determinant() == 0
        assert len(m.kernel()) == 3

    def test_determinant_against_cofactor_oracle(self):
        rng = random.Random(1)
        for size in (2, 3, 4, 5):
            for _ in range(8):
                rows = random_rational_matrix(rng, size, size)
                assert RationalMatrix(rows).determinant() == det_by_cofactors(rows)

    def test_pfaffian_against_pairing_oracle(self):
        rng = random.Random(2)
        for size in (2, 4, 6, 8):
            for _ in range(6):
                rows = random_skew_matrix(rng, size)
                assert pfaffian_expansion(rows) == pfaffian_by_pairings(rows)

    def test_pfaffian_squared_is_determinant(self):
        rng = random.Random(3)
        for size in (2, 4, 6, 8):
            for _ in range(6):
                rows = random_skew_matrix(rng, size)
                pf = pfaffian_expansion(rows)
                assert pf ** 2 == RationalMatrix(rows).determinant()

    def test_pfaffian_expansion_oracle_matches_elimination(self):
        # sympy's determinant is an elimination that shares no code with linalg
        import sympy

        rng = random.Random(4)
        for size in (4, 6):
            for _ in range(4):
                rows = random_skew_matrix(rng, size)
                det = sympy.Matrix([[int(x) for x in row] for row in rows]).det()
                assert pfaffian_expansion(rows) ** 2 == int(det)

    def test_sparse_integer_rank_and_determinant(self):
        # sparse rows leave columns without a pivot and make both fill and
        # cancellation in the elimination behind `exact_rank` and the
        # determinant
        import sympy

        rng = random.Random(12)
        for _ in range(200):
            n, m = rng.randint(1, 7), rng.randint(1, 7)
            rows = [
                [rng.choice((-3, -1, 1, 2, 5)) if rng.random() < 0.3 else 0 for _ in range(m)]
                for _ in range(n)
            ]
            before = [list(row) for row in rows]
            sparse = sparse_rows(rows)
            assert exact_rank(sparse) == sympy.Matrix(rows).rank(), rows
            assert sparse == sparse_rows(before)
            if n == m:
                assert RationalMatrix(rows).determinant() == det_by_cofactors(rows), rows
                assert exact_determinant(rows) == det_by_cofactors(rows), rows
            assert rows == before

    def test_rank_of_rectangular(self):
        m = RationalMatrix([[1, 2, 3], [2, 4, 6]])
        assert m.rank() == 1

    def test_empty_determinant_is_one(self):
        assert exact_determinant([]) == 1
        assert RationalMatrix([]).determinant() == 1

    def test_empty_pfaffian_is_one(self):
        assert pfaffian_expansion([]) == 1

    @settings(derandomize=True, database=None, max_examples=300, deadline=None)
    @given(st.data())
    def test_exact_determinant_matches_sympy(self, data):
        # sympy's det() shares no code with linalg.  Signed permutation
        # matrices, alone or with their rows applied to a random matrix, make
        # the sign of the pivot-row order the whole answer; dense draws mix
        # in ints beyond 2^63, sparse ones leave columns without a pivot,
        # and repeated combinations of rows make the matrix singular.
        import sympy

        n = data.draw(st.integers(0, 10))
        perm = data.draw(st.permutations(range(n)))
        signs = [data.draw(st.sampled_from((-1, 1))) for _ in range(n)]
        kind = data.draw(st.sampled_from(("permutation", "permuted", "dense", "sparse")))
        if kind == "permutation":
            rows = [[signs[i] * (j == perm[i]) for j in range(n)] for i in range(n)]
        else:
            entry = st.one_of(st.integers(-9, 9), st.integers(-(2**70), 2**70))
            if kind == "sparse":
                entry = st.one_of(st.just(0), st.just(0), st.just(0), st.integers(-5, 5))
            rows = [[data.draw(entry) for _ in range(n)] for _ in range(n)]
            if kind == "permuted":
                rows = [[signs[i] * x for x in rows[perm[i]]] for i in range(n)]
            for i in range(2, n):
                if data.draw(st.integers(0, 5)) == 0:
                    a, b = data.draw(st.integers(-2, 2)), data.draw(st.integers(-2, 2))
                    rows[i] = [a * x + b * y for x, y in zip(rows[i - 1], rows[i - 2])]
        before = [list(row) for row in rows]
        det = exact_determinant(rows)
        assert type(det) is int
        assert det == int(sympy.Matrix(n, n, [x for row in rows for x in row]).det())
        assert sparse_determinant(sparse_rows(rows)) == det
        assert rows == before

    @settings(derandomize=True, database=None, max_examples=200, deadline=None)
    @given(st.data())
    def test_rational_determinant_matches_sympy(self, data):
        # Fraction entries: denominators are cleared by multiplying rows,
        # which the determinant must divide out again
        import sympy

        n = data.draw(st.integers(0, 7))
        entry = st.one_of(st.just(0), st.fractions(min_value=-6, max_value=6, max_denominator=12))
        rows = [[data.draw(entry) for _ in range(n)] for _ in range(n)]
        oracle = sympy.Matrix(n, n, [sympy.Rational(str(x)) for row in rows for x in row]).det()
        assert RationalMatrix(rows).determinant() == Fraction(str(oracle))

    def test_fractional_entries(self):
        m = RationalMatrix([[Fraction(1, 2), Fraction(1, 3)], [Fraction(1, 5), Fraction(2, 7)]])
        assert m.determinant() == Fraction(1, 2) * Fraction(2, 7) - Fraction(1, 3) * Fraction(1, 5)

    def test_shape_errors(self):
        with pytest.raises(ShapeMismatch):
            RationalMatrix([[1, 2]]).determinant()
        with pytest.raises(ShapeMismatch):
            exact_determinant([[1, 2]])
        with pytest.raises(ShapeMismatch):
            exact_determinant([[1], [2]])
        with pytest.raises(ShapeMismatch):
            pfaffian_expansion([[0] * 3 for _ in range(3)])


class TestKernel:
    def test_rank_nullity_on_random_matrices(self):
        rng = random.Random(5)
        for _ in range(10):
            rows = random_rational_matrix(rng, rng.randint(1, 5), rng.randint(1, 5))
            m = RationalMatrix(rows)
            basis = m.kernel()
            assert len(basis) + m.rank() == m.cols
            for v in basis:
                assert all(sum(a * b for a, b in zip(row, v)) == 0 for row in m.data)

    def test_kernel_vectors_are_independent(self):
        m = RationalMatrix([[1, 1, 1]])
        basis = m.kernel()
        assert len(basis) == 2
        stacked = RationalMatrix(basis)
        assert stacked.rank() == 2

    def test_matches_sympy_nullspace_on_random_matrices(self):
        # sympy's nullspace also sets each free coordinate to 1, and the
        # basis read off the reduced row echelon form is unique
        rng = random.Random(9)
        for _ in range(300):
            nrows, ncols = rng.randint(1, 6), rng.randint(1, 7)
            rows = [
                [
                    Fraction(rng.randint(-4, 4), rng.randint(1, 3)) if rng.random() < 0.5 else 0
                    for _ in range(ncols)
                ]
                for _ in range(nrows)
            ]
            assert RationalMatrix(rows).kernel() == sympy_nullspace(rows)

    @settings(derandomize=True, database=None, max_examples=300, deadline=None)
    @given(st.data())
    def test_sparse_kernel_matches_sympy_nullspace(self, data):
        # sympy's nullspace shares no code with linalg and also sets each
        # free coordinate to 1.  Rows are sparse dicts of ints or Fractions;
        # shapes include empty rows, all-zero columns and more rows than
        # columns, and some rows repeat combinations of earlier ones so that
        # ranks drop.  The rows must come back unchanged.
        nrows, ncols = data.draw(st.integers(0, 10)), data.draw(st.integers(1, 7))
        entry = st.one_of(
            st.just(0),
            st.just(0),
            st.integers(-4, 4),
            st.fractions(min_value=-5, max_value=5, max_denominator=6),
        )
        zero_cols = data.draw(st.sets(st.integers(0, ncols - 1), max_size=ncols))
        rows = [
            [0 if j in zero_cols else data.draw(entry) for j in range(ncols)] for _ in range(nrows)
        ]
        for i in range(2, nrows):
            if data.draw(st.booleans()):
                a, b = data.draw(st.integers(-2, 2)), data.draw(st.integers(-2, 2))
                rows[i] = [a * x + b * y for x, y in zip(rows[i - 1], rows[i - 2])]
        sparse = [{j: x for j, x in enumerate(row) if x} for row in rows]
        before = [dict(row) for row in sparse]
        basis = sparse_kernel(sparse, ncols)
        assert basis == sympy_nullspace(rows or [[0] * ncols])
        assert all(type(x) is Fraction for v in basis for x in v)
        assert len(sparse_echelon(sparse)) == ncols - len(basis)
        assert sparse == before

    def test_echelon_rows_are_primitive_integers(self):
        # denominators cleared and each pivot row divided by its gcd; each
        # pivot row's leftmost entry sits in its pivot column
        rows = [{0: Fraction(1, 2), 2: Fraction(3, 4)}, {0: 4, 1: 6, 2: 8}, {1: Fraction(2, 3)}]
        pivots = sparse_echelon(rows)
        assert sorted(pivots) == [0, 1, 2]
        for c, row in pivots.items():
            assert min(row) == c
            assert all(type(x) is int for x in row.values())
            assert math.gcd(*row.values()) == 1


class TestModP:
    def test_rank_mod_p_matches_exact_rank(self):
        rng = random.Random(6)
        for _ in range(15):
            rows = [[rng.randint(-9, 9) for _ in range(4)] for _ in range(5)]
            assert rank_mod_p(sparse_rows(rows)) == RationalMatrix(rows).rank()

    def test_certified_helpers(self):
        m = sparse_rows([[2, 0], [0, 3]])
        assert nonsingular(m)
        assert rank_at_least(m, 2)
        singular = sparse_rows([[1, 2], [2, 4]])
        assert not nonsingular(singular)
        assert not rank_at_least(singular, 2)
        with pytest.raises(ShapeMismatch):
            nonsingular(sparse_rows([[1, 2]]))

    def test_exact_fallback_when_p_divides_the_determinant(self):
        # det = p, so the rank mod p is deficient while the matrix is nonsingular
        m = sparse_rows([[2147483629, 0], [0, 1]])
        assert rank_mod_p(m) == 1
        assert nonsingular(m)
        assert rank_at_least(m, 2)
        assert not rank_at_least(m, 3)

    @settings(derandomize=True, database=None, max_examples=300, deadline=None)
    @given(st.data())
    def test_rank_mod_p_matches_sympy_gf(self, data):
        # sympy's DomainMatrix over GF(p) shares no code with linalg.  Shapes
        # include zero rows and zero columns; entries mix small values,
        # multiples of p and ints beyond 2^63, densely or sparsely, and some
        # rows repeat combinations of earlier ones so that ranks drop.
        from sympy import GF
        from sympy.polys.matrices import DomainMatrix

        p = _MODP_PRIME
        nrows, ncols = data.draw(st.integers(0, 9)), data.draw(st.integers(0, 9))
        entry = st.one_of(
            st.integers(-3, 3),
            st.integers(-3, 3).map(lambda k: k * p),
            st.integers(-(2**80), 2**80),
        )
        if data.draw(st.booleans()):  # sparse
            entry = st.one_of(st.just(0), st.just(0), entry)
        rows = [[data.draw(entry) for _ in range(ncols)] for _ in range(nrows)]
        for i in range(2, nrows):
            if data.draw(st.booleans()):
                a, b = data.draw(st.integers(-2, 2)), data.draw(st.integers(-2, 2))
                rows[i] = [a * x + b * y for x, y in zip(rows[i - 1], rows[i - 2])]
        sparse = sparse_rows(rows)
        before = [dict(row) for row in sparse]
        K = GF(p)
        oracle = DomainMatrix([[K(x) for x in row] for row in rows], (nrows, ncols), K)
        assert rank_mod_p(sparse) == oracle.rank()
        assert sparse == before

    def test_decisions_match_sympy(self):
        # low-rank products U V and skew U^T S U, so singular matrices are
        # common; sympy's det() and rank() share no code with linalg
        import sympy

        rng = random.Random(23)
        verdicts = set()
        for trial in range(80):
            n, m = rng.randint(1, 6), rng.randint(1, 6)
            r = rng.randint(0, min(n, m))
            if trial % 2:
                m = n
                U = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(r)]
                S = [[int(x) for x in row] for row in random_skew_matrix(rng, r, span=4)]
                rows = [
                    [sum(U[a][i] * S[a][b] * U[b][j] for a in range(r) for b in range(r)) for j in range(n)]
                    for i in range(n)
                ]
            else:
                U = [[rng.randint(-4, 4) for _ in range(r)] for _ in range(n)]
                V = [[rng.randint(-4, 4) for _ in range(m)] for _ in range(r)]
                rows = [[sum(U[i][t] * V[t][j] for t in range(r)) for j in range(m)] for i in range(n)]
            oracle = sympy.Matrix(rows)
            sparse = sparse_rows(rows)
            if n == m:
                assert nonsingular(sparse) == (oracle.det() != 0), rows
                verdicts.add((trial % 2, nonsingular(sparse)))
            for k in range(min(n, m) + 2):
                assert rank_at_least(sparse, k) == (oracle.rank() >= k), (rows, k)
        assert verdicts == {(0, False), (0, True), (1, False), (1, True)}


class TestPoly:
    def test_arithmetic(self):
        x = Poly.variable(0, 2)
        y = Poly.variable(1, 2)
        p = (x + y) * (x - y)
        q = x * x - y * y
        assert not (p - q)

    def test_evaluate(self):
        x = Poly.variable(0, 2)
        y = Poly.variable(1, 2)
        p = x * x + y * 3
        assert _specialize(p, [2, 5]) == 19

    def test_symbolic_rank_full(self):
        x = Poly.variable(0, 2)
        y = Poly.variable(1, 2)
        zero = Poly.zero(2)
        assert symbolic_rank([[zero, x], [-x, zero]]) == 2
        assert symbolic_rank([[zero, x, y], [-x, zero, zero], [-y, zero, zero]]) == 2
        assert symbolic_rank([[zero, zero], [zero, zero]]) == 0
        # every entry above the diagonal nonzero but the Pfaffian
        # x*y - x*(x + y) + x*x vanishes identically: rank 2, not 4
        a = [[zero, x, x, x], [zero, zero, x, x + y], [zero, zero, zero, y], [zero] * 4]
        for i in range(4):
            for j in range(i):
                a[i][j] = -a[j][i]
        assert symbolic_rank(a) == 2
        assert symbolic_rank([[zero, x * y], [-(x * y), zero]]) == 2

    def test_symbolic_rank_rejects_non_skew(self):
        # the rank by principal Pfaffians is only the rank of a skew matrix
        x = Poly.variable(0, 2)
        y = Poly.variable(1, 2)
        zero = Poly.zero(2)
        for mat in (
            [[x, y], [-y, x]],
            [[x, x], [x, x]],
            [[zero, x], [x, zero]],
            [[zero, x]],
            [[zero, x], [-x]],
            [[0, 1, 0], [-1, 0, 2], [0, -2, 5]],
        ):
            with pytest.raises(ShapeMismatch):
                symbolic_rank(mat)

    def test_symbolic_rank_matches_sympy_on_skew_fraction_matrices(self):
        import sympy

        rng = random.Random(21)
        seen = set()
        for trial in range(300):
            n = rng.randint(0, 8)
            rows = random_skew_matrix(rng, n, span=3)
            for i in range(n):
                for j in range(i + 1, n):
                    roll = rng.random()
                    if roll < 0.3:
                        rows[i][j] = Fraction(0)
                    elif roll < 0.45:
                        rows[i][j] /= rng.randint(2, 9)
                    rows[j][i] = -rows[i][j]
            if n and trial % 3 == 0:  # a zero row and its zero column
                z = rng.randrange(n)
                for i in range(n):
                    rows[z][i] = rows[i][z] = Fraction(0)
            r = symbolic_rank(rows)
            assert r == sympy.Matrix(rows).rank(), rows
            seen.add((n % 2, r < n - n % 2))
        # odd and even sizes, each at full skew rank and below it
        assert seen == {(0, False), (0, True), (1, False), (1, True)}

    def test_symbolic_rank_generic_vs_specialization(self):
        # the symbolic rank dominates the rank of every specialization and
        # equals it at a generic point
        rng = random.Random(8)
        nv = 3
        xs = [Poly.variable(i, nv) for i in range(nv)]
        zero = Poly.zero(nv)
        upper = {
            (0, 1): xs[0],
            (0, 2): xs[1],
            (0, 3): xs[2],
            (1, 2): xs[0] + xs[1],
            (1, 3): xs[1] + xs[2],
            (2, 3): xs[2] + xs[0],
            (0, 4): xs[0] * xs[1],
            (3, 4): xs[2],
        }
        rows = [[zero] * 5 for _ in range(5)]
        for (i, j), e in upper.items():
            rows[i][j] = e
            rows[j][i] = -e
        r = symbolic_rank(rows)
        assert r == 4
        ranks = []
        for _ in range(10):
            vals = [rng.randint(-9, 9) for _ in range(nv)]
            num = [[_specialize(e, vals) for e in row] for row in rows]
            ranks.append(RationalMatrix(num).rank())
            assert symbolic_rank(num) == ranks[-1]
        assert max(ranks) == r
        assert symbolic_rank([[_specialize(e, (0, 0, 1)) for e in row] for row in rows]) == 2
