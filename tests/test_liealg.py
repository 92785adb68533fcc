import random
import tracemalloc
from fractions import Fraction

import pytest

from conftest import det_by_cofactors, grow_h2_poset, sparse_rows, sympy_nullspace
import lieposet.liealg as liealg
from lieposet.contact import classify_h2, disconnected_contact_form, verify_contact_form
from lieposet.errors import EvenDimension, HeightBound, JacobiViolation, SizeBound, TooSmall
from lieposet.liealg import (
    DiagDiff,
    Elem,
    Functional,
    IndexEstimate,
    build_raw,
    build_type_a,
    center,
    center_dim,
    extended_matrix,
    index,
    index_certified,
    index_formula_h2,
    is_frobenius_h2,
    kirillov_matrix,
    kirillov_rows,
    random_functional,
    _jacobi_witness,
)
from lieposet.posets import complete_poset, disjoint_sum, enumerate_posets, make_poset

PHI_0 = Functional.on_positions({(2, 2): 1, (1, 3): 1, (2, 3): 1})


def index_over_every_trial(g, trials: int, seed: int, bound: int = 10**6) -> IndexEstimate:
    """`index` without its stop at the skew-rank ceiling: the same draws,
    every one of them taken, each ranked exactly over Q on dense rows."""
    rng = random.Random(seed)
    best = max(kirillov_matrix(g, random_functional(g, rng, bound)).rank() for _ in range(trials))
    per_trial = min(Fraction(g.dim, bound), Fraction(1))
    return IndexEstimate(g.dim - best, trials, seed, bound, per_trial**trials)


class TestBuildTypeA:
    def test_fork_dimension_and_matrix_pattern(self, fork_poset):
        g = build_type_a(fork_poset)
        assert g.dim == 3 + 5
        # matrix form: diagonal differences plus one unit per strict relation
        elems = [lbl for lbl in g.basis if isinstance(lbl, Elem)]
        assert {(e.p, e.q) for e in elems} == set(fork_poset.pairs)
        assert [lbl.p for lbl in g.basis if isinstance(lbl, DiagDiff)] == [2, 3, 4]

    def test_chain2(self):
        g = build_type_a(make_poset(2, [(1, 2)]))
        assert g.dim == 2
        assert g.bracket(0, 1) == {1: Fraction(2)}

    def test_complete_111_dimension(self):
        assert build_type_a(complete_poset([1, 1, 1])).dim == 5

    def test_too_small(self):
        with pytest.raises(TooSmall):
            build_type_a(make_poset(1, []))

    def test_antisymmetry_of_bracket_views(self, fork_poset):
        g = build_type_a(fork_poset)
        for i in range(g.dim):
            for j in range(g.dim):
                lhs = g.bracket(i, j)
                rhs = {t: -c for t, c in g.bracket(j, i).items()}
                assert lhs == rhs

    def test_brackets_are_matrix_commutators(self):
        # every bracket against X Y - Y X of the basis matrices, read back
        # in the basis: E_{p,q} by its entry, D(1,p) by minus the (p, p)
        # entry, with the trace-zero check on (1, 1)
        def matrix(label):
            if isinstance(label, DiagDiff):
                return {(1, 1): 1, (label.p, label.p): -1}
            return {(label.p, label.q): 1}

        def product(X, Y):
            out = {}
            for (i, k), x in X.items():
                for (k2, j), y in Y.items():
                    if k == k2:
                        out[(i, j)] = out.get((i, j), 0) + x * y
            return out

        for n in range(2, 6):
            for P in enumerate_posets(n):
                g = build_type_a(P)
                where = {lbl: k for k, lbl in enumerate(g.basis)}
                for i in range(g.dim):
                    for j in range(g.dim):
                        X, Y = matrix(g.basis[i]), matrix(g.basis[j])
                        C = product(X, Y)
                        for key, v in product(Y, X).items():
                            C[key] = C.get(key, 0) - v
                        coords = {}
                        for (a, b), v in C.items():
                            if v and a != b:
                                coords[where[Elem(a, b)]] = v
                            elif v and a != 1:
                                coords[where[DiagDiff(a)]] = -v
                        assert C.get((1, 1), 0) == -sum(C.get((p, p), 0) for p in range(2, n + 1))
                        assert g.bracket(i, j) == coords, (P, i, j)

    @pytest.mark.parametrize("ranks", [[1, 1, 1], [1, 1, 2], [2, 1, 1], [2, 1, 2]])
    def test_jacobi_holds_for_poset_algebras(self, ranks):
        assert _jacobi_witness(build_type_a(complete_poset(ranks))) is None


class TestBuildRaw:
    def test_index_one_noncontact_algebra_is_valid(self, index_one_noncontact_algebra):
        assert index_one_noncontact_algebra.dim == 7
        assert _jacobi_witness(index_one_noncontact_algebra) is None

    def test_heisenberg(self):
        g = build_raw(3, [(1, 2, {"3": 1})])
        assert g.bracket(0, 1) == {2: Fraction(1)}

    def test_abelian(self):
        g = build_raw(2, [])
        assert g.brackets == {}

    def test_jacobi_violation_carries_witness(self):
        with pytest.raises(JacobiViolation) as err:
            build_raw(3, [(1, 2, {"3": 1}), (1, 3, {"1": 1})])
        assert err.value.triple == (1, 2, 3)

    def test_inconsistent_antisymmetric_entries(self):
        with pytest.raises(JacobiViolation):
            build_raw(3, [(1, 2, {"3": 1}), (2, 1, {"3": 1})])

    def test_redundant_consistent_entries_accepted(self):
        g = build_raw(3, [(1, 2, {"3": 1}), (2, 1, {"3": -1})])
        assert g.bracket(0, 1) == {2: Fraction(1)}


class TestKirillov:
    def test_chain2_matrix(self):
        g = build_type_a(make_poset(2, [(1, 2)]))
        m = kirillov_matrix(g, Functional.on_positions({(1, 2): 1}))
        assert m.data == ((Fraction(0), Fraction(2)), (Fraction(-2), Fraction(0)))

    def test_zero_functional(self, fork_poset):
        g = build_type_a(fork_poset)
        assert kirillov_matrix(g, Functional.zero()).rank() == 0

    def test_complete_111_rank_four(self):
        g = build_type_a(complete_poset([1, 1, 1]))
        assert kirillov_matrix(g, PHI_0).rank() == 4

    def test_always_skew(self):
        rng = random.Random(9)
        for P in enumerate_posets(4, max_height=2):
            if P.n < 2:
                continue
            g = build_type_a(P)
            phi = random_functional(g, rng, 100)
            m = kirillov_matrix(g, phi)
            assert all(m[i, j] == -m[j, i] for i in range(m.rows) for j in range(m.cols))


class TestExtendedMatrix:
    def test_complete_111_nonzero_determinant_via_oracle(self):
        g = build_type_a(complete_poset([1, 1, 1]))
        m = extended_matrix(g, PHI_0)
        assert m.rows == 6
        det = m.determinant()
        assert det == det_by_cofactors([list(r) for r in m.data])
        assert det != 0

    def test_zero_functional_gives_zero_determinant(self):
        g = build_type_a(complete_poset([1, 1, 1]))
        assert extended_matrix(g, Functional.zero()).determinant() == 0

    def test_even_dimension_rejected(self):
        g = build_type_a(make_poset(2, [(1, 2)]))
        with pytest.raises(EvenDimension):
            extended_matrix(g, Functional.zero())

    def test_border_is_coefficient_vector(self):
        g = build_type_a(complete_poset([1, 1, 1]))
        m = extended_matrix(g, PHI_0)
        vals = PHI_0.values(g)
        assert list(m.data[0][1:]) == vals
        assert [m.data[i + 1][0] for i in range(g.dim)] == [-v for v in vals]


class TestKirillovRows:
    @staticmethod
    def rebuilt(g, phi):
        """Kirillov and bordered matrices straight from bracket() and values()."""
        vals = phi.values(g)
        B = [
            [sum((c * vals[t] for t, c in g.bracket(i, j).items()), Fraction(0)) for j in range(g.dim)]
            for i in range(g.dim)
        ]
        ext = [[Fraction(0)] + vals] + [[-vals[i]] + B[i] for i in range(g.dim)]
        return tuple(map(tuple, B)), tuple(map(tuple, ext))

    def test_exact_under_scaling(self):
        # a contact form with a /4 coefficient, and the same values on an
        # algebra with halved (rational) brackets: both clear to one scale
        P1 = complete_poset([1, 1, 2])
        phi = disconnected_contact_form(P1, P1, seed=4)
        assert any(c.denominator > 1 for c in phi.coeffs.values())
        g = build_type_a(disjoint_sum(P1, P1))
        halved = build_raw(
            g.dim,
            [
                (i + 1, j + 1, {str(t + 1): c / 2 for t, c in vec.items()})
                for (i, j), vec in g.brackets.items()
            ],
        )
        psi = Functional.on_basis({k + 1: v for k, v in enumerate(phi.values(g))})
        cases = [
            (g, phi),
            (halved, psi),
            (halved, random_functional(halved, random.Random(5), 50)),
            (halved, Functional.on_basis({1: Fraction(1, 3)})),
        ]
        verdicts = []
        for alg, form in cases:
            B, ext = self.rebuilt(alg, form)
            assert kirillov_matrix(alg, form).data == B
            assert extended_matrix(alg, form).data == ext
            verdict = verify_contact_form(alg, form)
            assert verdict == (extended_matrix(alg, form).determinant() != 0)
            verdicts.append(verdict)
        assert verdicts[:2] == [True, True] and verdicts[3] is False

    def test_scale_is_shared(self):
        g = build_raw(3, [(1, 2, {"3": Fraction(1, 3)})])
        rows, s = kirillov_rows(g, Functional.on_basis({3: Fraction(1, 2)}), bordered=True)
        assert s == 6
        assert rows == sparse_rows([[0, 0, 0, 3], [0, 0, 1, 0], [0, -1, 0, 0], [-3, 0, 0, 0]])


class TestIndex:
    def test_complete_111(self):
        g = build_type_a(complete_poset([1, 1, 1]))
        assert index(g, trials=3, seed=0).value == 1

    def test_noncontact_algebra_has_index_one(self, index_one_noncontact_algebra):
        assert index(index_one_noncontact_algebra, trials=3, seed=1).value == 1
        assert index_certified(index_one_noncontact_algebra) == 1

    def test_abelian(self):
        g = build_raw(3, [])
        assert index(g, trials=1, seed=0).value == 3

    def test_large_abelian_in_linear_memory(self):
        # the Kirillov rows of an abelian algebra are empty; written out
        # densely they would hold 25 million zeros
        g = build_raw(5000, [])
        tracemalloc.start()
        try:
            value = index(g).value
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert value == 5000
        assert peak < 20 * 2**20

    def test_ceiling_stop_keeps_every_estimate(self):
        for P in enumerate_posets(6, max_height=2):
            if P.n >= 2:
                g = build_type_a(P)
                for seed in range(2):
                    assert index(g, trials=3, seed=seed) == index_over_every_trial(g, 3, seed)

    def test_frobenius_and_contact_take_one_rank(self, monkeypatch):
        calls = []

        def rank_mod_p(rows):
            calls.append(len(rows))
            return real_rank_mod_p(rows)

        real_rank_mod_p = liealg.rank_mod_p
        monkeypatch.setattr(liealg, "rank_mod_p", rank_mod_p)
        checked = 0
        for P in enumerate_posets(6, max_height=2):
            if P.n >= 2 and (is_frobenius_h2(P) or classify_h2(P).contact):
                calls.clear()
                assert index(build_type_a(P), trials=3, seed=0).value == index_formula_h2(P) <= 1
                assert len(calls) == 1, P
                checked += 1
        assert checked > 20

    def test_failure_bound_reported(self):
        g = build_type_a(complete_poset([1, 1, 1]))
        est = index(g, trials=2, seed=0, bound=1000)
        assert est.failure_bound == Fraction(5, 1000) ** 2

    def test_certified_matches_randomized_on_small_algebras(self):
        for P in enumerate_posets(4, max_height=2):
            if P.n < 2:
                continue
            g = build_type_a(P)
            if g.dim <= 8:
                assert index_certified(g) == index(g, trials=3, seed=3).value

    def test_certified_size_bound(self):
        g = build_type_a(complete_poset([2, 1, 2]))
        with pytest.raises(SizeBound):
            index_certified(g)

    @pytest.mark.parametrize("seed", range(6))
    def test_beyond_symbolic_range(self, seed):
        # same draws as index(): the mod-p value must equal both the
        # combinatorial formula and the exact rank over Q
        rng = random.Random(seed)
        P = grow_h2_poset(rng, rng.randint(15, 30), contact=seed % 2 == 0)
        assert P.height == 2 and P.is_connected
        g = build_type_a(P)
        est = index(g, trials=3, seed=seed)
        assert est == index_over_every_trial(g, 3, seed)
        assert est.value == index_formula_h2(P)

    def test_rational_structure_constants(self):
        # halving every bracket gives an isomorphic algebra (b -> 2b), so the
        # index is unchanged; its Kirillov entries are cleared by one lcm
        P = grow_h2_poset(random.Random(11), 12, contact=False)
        g = build_type_a(P)
        halved = build_raw(
            g.dim,
            [
                (i + 1, j + 1, {str(t + 1): c / 2 for t, c in vec.items()})
                for (i, j), vec in g.brackets.items()
            ],
        )
        assert halved.denominator == 2
        constants = [c for i, j in halved.brackets for c in halved.bracket(i, j).values()]
        assert any(c.denominator == 2 for c in constants)
        assert index(halved, seed=4).value == index(g, seed=4).value == index_formula_h2(P)


class TestIndexFormula:
    def test_fork(self, fork_poset):
        assert index_formula_h2(fork_poset) == 2 - 4 + 2 - 1 + 1 == 0

    def test_complete_111(self):
        assert index_formula_h2(complete_poset([1, 1, 1])) == 1 - 3 + 2 - 1 + 2 == 1

    def test_antichain2(self):
        assert index_formula_h2(make_poset(2, [])) == 0 - 2 + 4 - 1 + 0 == 1

    def test_height_bound(self):
        with pytest.raises(HeightBound):
            index_formula_h2(make_poset(4, [(1, 2), (2, 3), (3, 4)]))


class TestFrobenius:
    def test_fork_is_frobenius(self, fork_poset):
        assert is_frobenius_h2(fork_poset)

    def test_complete_111_is_not(self):
        assert not is_frobenius_h2(complete_poset([1, 1, 1]))

    def test_zigzag_tree_is_frobenius(self):
        # nine elements built from three wide blocks glued along a tree
        P = make_poset(
            9, [(1, 4), (4, 6), (2, 6), (2, 7), (5, 7), (3, 5), (4, 8), (5, 9)]
        )
        assert P.height == 2 and P.is_connected
        assert is_frobenius_h2(P)
        assert index_formula_h2(P) == 0

    def test_matches_formula_across_enumeration(self):
        for n in range(1, 6):
            for P in enumerate_posets(n, max_height=2):
                assert is_frobenius_h2(P) == (index_formula_h2(P) == 0)

    def test_matches_networkx_tree_oracle(self):
        # the definition read off the relation pairs alone, with no package
        # helper: every interior element has three comparable elements, and
        # the comparability graph on the minimal-or-maximal ones is a tree
        import networkx as nx

        verdicts = set()
        for n in range(1, 7):
            for P in enumerate_posets(n, max_height=2):
                below = {v: {i for i, j in P.pairs if j == v} for v in range(1, n + 1)}
                above = {v: {j for i, j in P.pairs if i == v} for v in range(1, n + 1)}
                ext = {v for v in below if not below[v] or not above[v]}
                interior_ok = all(len(below[v]) + len(above[v]) == 3 for v in below if v not in ext)
                G = nx.Graph()
                G.add_nodes_from(ext)
                G.add_edges_from((i, j) for i, j in P.pairs if i in ext and j in ext)
                expected = interior_ok and nx.is_tree(G)
                assert is_frobenius_h2(P) == expected, P.pairs
                verdicts.add(expected)
        assert verdicts == {False, True}


class TestCenter:
    def test_connected_poset_has_trivial_center(self, fork_poset):
        assert center(build_type_a(fork_poset)) == []

    def test_two_chain_sum_center(self):
        P = disjoint_sum(make_poset(2, [(1, 2)]), make_poset(2, [(1, 2)]))
        g = build_type_a(P)
        basis = center(g)
        assert len(basis) == 1
        # must be proportional to 2(E11 + E22) - 2(E33 + E44), whose
        # coordinates over the difference basis are (-2, 2, 2) with no
        # unit-matrix component
        v = basis[0]
        expected = [Fraction(-2), Fraction(2), Fraction(2), Fraction(0), Fraction(0)]
        ratio = None
        for a, b in zip(v, expected):
            if (a == 0) != (b == 0):
                pytest.fail(f"center vector {v} not proportional to {expected}")
            if b != 0:
                r = a / b
                assert ratio is None or r == ratio
                ratio = r
        assert ratio != 0

    def test_abelian_center_is_everything(self):
        g = build_raw(3, [])
        assert len(center(g)) == center_dim(g) == 3
        heisenberg = build_raw(3, [(1, 2, {"3": 1})])
        assert center(heisenberg) == [(0, 0, 1)]
        assert center_dim(heisenberg) == 1

    def test_matches_sympy_nullspace_up_to_five_elements(self):
        # the equations [z, b_j] = 0, one row per (j, target), assembled
        # here from bracket() and solved by sympy
        nonzero = 0
        for n in range(2, 6):
            for P in enumerate_posets(n):
                g = build_type_a(P)
                rows = []
                for j in range(g.dim):
                    for t in range(g.dim):
                        row = [g.bracket(k, j).get(t, Fraction(0)) for k in range(g.dim)]
                        if any(row):
                            rows.append(row)
                basis = center(g)
                assert basis == sympy_nullspace(rows or [[0] * g.dim])
                nonzero += bool(basis)
        assert nonzero > 0

    def test_closed_form_from_components(self):
        # the center of a poset algebra is spanned by the trace-zero
        # combinations of its components' identity blocks: dimension
        # components - 1, no matrix-unit coordinate, and a diagonal that is
        # constant along every relation.  Over the D(1,p) basis, coordinate
        # p - 2 carries -d_p and d_1 is the sum of the coordinates.
        posets = [P for n in range(2, 7) for P in enumerate_posets(n)]
        assert len(posets) == 404
        for seed, parts in enumerate((1, 2, 3, 1, 2, 3)):
            rng = random.Random(seed)
            grown = [grow_h2_poset(rng, 20 // parts, seed % 2 == 0) for _ in range(parts)]
            P = grown[0]
            for Q in grown[1:]:
                P = disjoint_sum(P, Q)
            assert 15 <= P.n <= 30 and P.components == parts
            posets.append(P)
        for P in posets:
            g = build_type_a(P)
            basis = center(g)
            assert len(basis) == center_dim(g) == P.components - 1, P
            for v in basis:
                assert not any(v[P.n - 1:]), (P, v)
                diag = [sum(v[: P.n - 1])] + [-x for x in v[: P.n - 1]]
                assert all(diag[i - 1] == diag[j - 1] for i, j in P.pairs), (P, v)

    def test_center_elements_commute_post_hoc(self):
        P = disjoint_sum(complete_poset([1, 1, 2]), make_poset(2, [(1, 2)]))
        g = build_type_a(P)
        for v in center(g):
            coords = {k: c for k, c in enumerate(v) if c}
            for j in range(g.dim):
                assert g.bracket_coords(coords, j) == {}
