from itertools import combinations

import pytest

from lieposet.complexes import (
    SimplicialComplex,
    betti_numbers,
    check_morse,
    complex_from_json,
    complex_to_json,
    order_complex,
    verify_acyclic,
)
from lieposet.errors import HeightBound, MorseConditionViolated, SizeBound
from lieposet.posets import complete_poset, enumerate_posets, make_poset

#: the solid-triangle assignment with a single critical vertex:
#: f(v1)=0, f(e1)=1, f(v2)=2, f(e2)=3, f(v3)=4, f(e3)=6, f(f1)=5
#: with v1=1, v2=2, v3=3, e1={1,2}, e2={1,3}, e3={2,3}
TRIANGLE_MORSE = {
    (1,): 0,
    (1, 2): 1,
    (2,): 2,
    (1, 3): 3,
    (3,): 4,
    (2, 3): 6,
    (1, 2, 3): 5,
}


class TestOrderComplex:
    def test_complete_111_is_solid_triangle(self):
        K = order_complex(complete_poset([1, 1, 1]))
        assert K.face_counts() == [3, 3, 1]

    def test_antichain_is_points(self):
        K = order_complex(make_poset(3, []))
        assert K.face_counts() == [3]

    def test_fork_chains(self, fork_poset):
        K = order_complex(fork_poset)
        assert K.face_counts() == [4, 5, 2]
        assert set(K.faces(2)) == {(1, 2, 3), (1, 2, 4)}

    def test_faces_are_the_chains(self):
        # every subset of every poset with at most 6 elements, kept when its
        # elements are pairwise related
        for n in range(1, 7):
            for P in enumerate_posets(n):
                chains = {
                    face
                    for k in range(1, n + 1)
                    for face in combinations(range(1, n + 1), k)
                    if all((a, b) in P.pair_set for a, b in combinations(face, 2))
                }
                assert set(order_complex(P).all_faces()) == chains, P

    def test_face_count_invariants_across_enumeration(self):
        for n in range(1, 6):
            for P in enumerate_posets(n, max_height=2):
                K = order_complex(P)
                counts = K.face_counts() + [0, 0]
                assert counts[0] == P.n
                assert counts[1] == len(P.pairs)
                three_chains = sum(
                    1
                    for (a, b) in P.pairs
                    for c in range(b + 1, P.n + 1)
                    if (b, c) in P.pair_set and (a, c) in P.pair_set
                )
                assert counts[2] == three_chains


class TestBetti:
    def test_solid_triangle(self):
        K = order_complex(complete_poset([1, 1, 1]))
        assert betti_numbers(K) == [1, 0, 0]

    def test_crown_complex_is_a_circle(self, crown_poset):
        K = order_complex(crown_poset)
        assert betti_numbers(K) == [1, 1]

    def test_two_tree_forest(self, two_tree_forest):
        K = order_complex(two_tree_forest)
        assert betti_numbers(K) == [2, 0, 0]

    def test_reduced_subtracts_augmentation(self, crown_poset):
        K = order_complex(crown_poset)
        assert betti_numbers(K, reduced=True) == [0, 1]

    def test_euler_characteristic_matches_betti(self):
        for n in range(1, 6):
            for P in enumerate_posets(n, max_height=2):
                K = order_complex(P)
                b = betti_numbers(K)
                assert K.euler_characteristic() == sum(
                    (-1) ** k * v for k, v in enumerate(b)
                )

    def test_size_bound_and_up_to_escape(self):
        chain5 = make_poset(5, [(1, 2), (2, 3), (3, 4), (4, 5)])
        K = order_complex(chain5)
        assert K.dimension == 4
        with pytest.raises(SizeBound):
            betti_numbers(K)
        assert betti_numbers(K, reduced=True, up_to=2) == [0, 0, 0]


class TestVerifyAcyclic:
    def test_chain_is_acyclic(self):
        assert verify_acyclic(make_poset(3, [(1, 2), (2, 3)]))

    def test_crown_is_not(self, crown_poset):
        assert not verify_acyclic(crown_poset)

    def test_disconnected_is_not(self):
        assert not verify_acyclic(make_poset(2, []))

    def test_height_bound(self):
        with pytest.raises(HeightBound):
            verify_acyclic(make_poset(4, [(1, 2), (2, 3), (3, 4)]))

    def test_contact_posets_are_acyclic(self):
        from lieposet.contact import classify_h2

        hit = 0
        for n in range(3, 7):
            for P in enumerate_posets(n, max_height=2, connected_only=True):
                if P.height == 2 and classify_h2(P).contact:
                    hit += 1
                    assert verify_acyclic(P)
        assert hit > 30


class TestMorse:
    def test_triangle_assignment_has_single_critical_vertex(self):
        K = order_complex(complete_poset([1, 1, 1]))
        assert check_morse(K, TRIANGLE_MORSE) == [(1,)]

    def test_dimension_function_makes_everything_critical(self):
        K = order_complex(complete_poset([1, 1, 1]))
        f = {face: len(face) - 1 for face in K.all_faces()}
        assert set(check_morse(K, f)) == set(K.all_faces())

    def test_swapping_top_values_breaks_single_critical_cell(self):
        K = order_complex(complete_poset([1, 1, 1]))
        f = dict(TRIANGLE_MORSE)
        f[(2, 3)], f[(1, 2, 3)] = f[(1, 2, 3)], f[(2, 3)]
        try:
            critical = check_morse(K, f)
        except MorseConditionViolated:
            return
        assert critical != [(1,)]

    def test_violation_witness(self):
        K = SimplicialComplex([(1, 2), (2, 3)])
        f = {(1,): 5, (2,): 5, (3,): 5, (1, 2): 0, (2, 3): 0}
        with pytest.raises(MorseConditionViolated) as err:
            check_morse(K, f)
        # vertex 2 has two descending cofaces; both edges have two ascending
        # faces; any of those is a valid witness
        assert err.value.face in {(2,), (1, 2), (2, 3)}

    def test_missing_value_rejected(self):
        K = order_complex(make_poset(2, [(1, 2)]))
        with pytest.raises(ValueError):
            check_morse(K, {(1,): 0, (2,): 1})

    def test_single_critical_vertex_forces_acyclicity(self):
        # validated jointly: the assignment passes and the complex is
        # rationally acyclic with one critical cell
        P = complete_poset([1, 1, 1])
        K = order_complex(P)
        assert check_morse(K, TRIANGLE_MORSE) == [(1,)]
        assert betti_numbers(K, reduced=True) == [0, 0, 0]


class TestComplexJson:
    def test_round_trip(self):
        K = order_complex(complete_poset([1, 1, 1]))
        data = complex_to_json(K)
        assert sorted(map(tuple, data["faces"])) == sorted(
            [(1,), (2,), (3,), (1, 2), (1, 3), (2, 3), (1, 2, 3)],
            key=lambda f: (len(f), f),
        ) or complex_from_json(data) == K
        assert complex_from_json(data) == K

    def test_closure_on_construction(self):
        K = SimplicialComplex([(1, 2, 3)])
        assert K.face_counts() == [3, 3, 1]
