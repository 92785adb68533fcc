from fractions import Fraction

import pytest

from conftest import ce_ranks_sympy
from lieposet.cohomology import ce_cohomology_dims
from lieposet.complexes import betti_numbers, order_complex
from lieposet.errors import SizeBound
from lieposet.liealg import build_raw, build_type_a, center
from lieposet.posets import complete_poset, enumerate_posets, make_poset


def cg_right_hand_side(P, g):
    """Dimension bookkeeping of the semidirect-product decomposition of H^2:
    wedge-square of the Cartan dual tensor the center, plus Cartan dual
    tensor H^1 of the order complex, plus H^2 of the order complex."""
    h = P.n - 1
    c = len(center(g))
    b = betti_numbers(order_complex(P), reduced=True, up_to=2)
    b = b + [0] * (3 - len(b))
    return (h * (h - 1) // 2) * c + h * b[1] + b[2]


class TestSmallCases:
    def test_one_dimensional_abelian(self):
        assert ce_cohomology_dims(build_raw(1, [])) == (1, 1, 0)

    def test_two_dimensional_abelian(self):
        # all differentials vanish: H^k = dim C^k
        assert ce_cohomology_dims(build_raw(2, [])) == (2, 4, 2)

    @pytest.mark.parametrize(
        "brackets, dims",
        [
            # sl2 (h, e, f): semisimple, so H^0 = H^1 = H^2 = 0 (Whitehead)
            ([(1, 2, {2: 2}), (1, 3, {3: -2}), (2, 3, {1: 1})], (0, 0, 0)),
            # the Heisenberg algebra h3: [x, y] = z
            ([(1, 2, {3: 1})], (1, 4, 5)),
        ],
    )
    def test_raw_algebras_off_the_poset_path(self, brackets, dims):
        g = build_raw(3, brackets)
        assert ce_cohomology_dims(g) == dims == dims_from_ranks(3, ce_ranks_sympy(g))

    def test_complete_111_is_rigid(self):
        g = build_type_a(complete_poset([1, 1, 1]))
        assert ce_cohomology_dims(g)[2] == 0

    def test_fork_is_rigid(self, fork_poset):
        g = build_type_a(fork_poset)
        assert ce_cohomology_dims(g)[2] == 0

    def test_h0_is_center_dimension(self):
        for rel in ([], [(1, 2)], [(1, 2), (1, 3)]):
            P = make_poset(3, rel)
            g = build_type_a(P)
            assert ce_cohomology_dims(g)[0] == len(center(g))

    def test_size_bound(self):
        chain6 = make_poset(6, [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6)])
        with pytest.raises(SizeBound):
            ce_cohomology_dims(build_type_a(chain6))


def dims_from_ranks(dim, ranks):
    r0, r1, r2 = ranks
    return (dim - r0, dim * dim - r1 - r0, dim * (dim * (dim - 1) // 2) - r2 - r1)


class TestWeightBlocking:
    @pytest.mark.parametrize(
        "rel",
        [
            [],
            [(1, 2)],
            [(1, 2), (2, 3)],
            [(1, 3), (2, 3)],
            [(1, 2), (2, 3), (2, 4)],
            [(1, 3), (2, 3), (3, 4)],
        ],
    )
    def test_blocked_ranks_match_unblocked(self, rel):
        # the sympy oracle assembles each differential from bracket() alone
        # and ranks it whole, with no torus-weight bookkeeping
        n = max((max(p) for p in rel), default=2)
        P = make_poset(max(n, 2), rel)
        g = build_type_a(P)
        assert ce_cohomology_dims(g) == dims_from_ranks(g.dim, ce_ranks_sympy(g))

    def test_halved_brackets_match_oracle(self):
        # denominator 2: the integer table is twice the bracket, which must
        # not move any rank; raw algebras carry no torus weights
        g = build_type_a(make_poset(3, [(1, 2), (2, 3)]))
        halved = build_raw(
            g.dim,
            [
                (i + 1, j + 1, {t + 1: Fraction(c, 2) for t, c in vec.items()})
                for (i, j), vec in g.brackets.items()
            ],
        )
        assert halved.denominator == 2
        expected = dims_from_ranks(halved.dim, ce_ranks_sympy(halved))
        assert ce_cohomology_dims(halved) == ce_cohomology_dims(g) == expected


class TestDecompositionIdentity:
    def test_holds_for_posets_up_to_four_elements(self):
        for n in range(2, 5):
            for P in enumerate_posets(n):
                g = build_type_a(P)
                assert ce_cohomology_dims(g)[2] == cg_right_hand_side(P, g), P

    def test_chain_five_top_size(self):
        chain5 = make_poset(5, [(1, 2), (2, 3), (3, 4), (4, 5)])
        g = build_type_a(chain5)
        assert g.dim == 14
        assert ce_cohomology_dims(g) == (0, 0, 0)
