import hashlib
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import lieposet

from conftest import (
    brute_force_class_count,
    brute_force_isomorphic,
    brute_force_labeled_posets,
    brute_force_least_pred_masks,
)
from lieposet.errors import (
    HeightBound,
    InternalInvariant,
    LabelOrderViolation,
    NotInterior,
    OutOfRange,
    SizeBound,
)
from lieposet import posets
from lieposet.posets import (
    Poset,
    are_isomorphic,
    canonical_form,
    canonical_poset,
    complete_poset,
    disjoint_sum,
    enumerate_posets,
    extremal_data,
    interior_neighborhood,
    interior_shape,
    is_forest,
    make_poset,
    poset_from_json,
    poset_to_dot,
    poset_to_json,
    relabel,
    split_components,
    up_down,
)


def _assert_invariant_under_optimize(cwd, statement: str):
    """`statement`, run after importing Poset under `python -O` against the
    package the suite imported, must end in InternalInvariant."""
    package_root = str(Path(lieposet.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    code = f"from lieposet.posets import Poset; {statement}"
    run = subprocess.run(
        [sys.executable, "-O", "-c", code], capture_output=True, cwd=cwd, env=env
    )
    assert run.returncode == 1
    assert b"InternalInvariant" in run.stderr


class TestMakePoset:
    def test_closure_of_fork_generators(self):
        P = make_poset(4, [(1, 2), (2, 3), (2, 4)])
        assert set(P.pairs) == {(1, 2), (1, 3), (1, 4), (2, 3), (2, 4)}

    def test_antichain_has_empty_closure(self):
        assert make_poset(3, []).pairs == ()

    def test_already_closed_height_one(self):
        P = make_poset(4, [(1, 3), (1, 4), (2, 3), (2, 4)])
        assert set(P.pairs) == {(1, 3), (1, 4), (2, 3), (2, 4)}

    def test_closure_is_idempotent(self):
        P = make_poset(5, [(1, 2), (2, 3), (3, 5), (1, 4)])
        Q = make_poset(5, P.pairs)
        assert Q.pairs == P.pairs

    def test_label_order_violation(self):
        with pytest.raises(LabelOrderViolation):
            make_poset(3, [(2, 1)])
        with pytest.raises(LabelOrderViolation):
            make_poset(3, [(2, 2)])

    def test_direct_construction_checks_mask_count(self):
        with pytest.raises(InternalInvariant):
            Poset(3, (0, 0))

    @pytest.mark.parametrize(
        "succ",
        [(0b010, 0b100, 0), (0, 0b001, 0), (0b001, 0, 0), (0b1000, 0, 0)],
        ids=["not-closed", "label-order", "reflexive", "out-of-range"],
    )
    def test_direct_construction_checks_masks(self, succ):
        with pytest.raises(InternalInvariant):
            Poset(3, succ)

    def test_direct_construction_accepts_closed_natural_masks(self):
        assert Poset(3, (0b110, 0b100, 0)) == make_poset(3, [(1, 2), (2, 3)])

    def test_invariant_survives_optimized_mode(self, tmp_path):
        # an assert would vanish under -O; the raised invariant must not
        _assert_invariant_under_optimize(tmp_path, "Poset(3, (0, 0))")

    @pytest.mark.parametrize(
        "succ", ["(0b010, 0b100, 0)", "(0, 0b001, 0)"], ids=["not-closed", "label-order"]
    )
    def test_mask_checks_survive_optimized_mode(self, tmp_path, succ):
        _assert_invariant_under_optimize(tmp_path, f"Poset(3, {succ})")

    def test_out_of_range(self):
        with pytest.raises(OutOfRange):
            make_poset(3, [(1, 4)])
        with pytest.raises(OutOfRange):
            make_poset(3, [(0, 2)])


class TestExtremalData:
    def test_fork(self, fork_poset):
        ed = extremal_data(fork_poset)
        assert set(ed.ext) == {1, 3, 4}
        assert set(ed.rel_e) == {(1, 3), (1, 4)}
        assert set(ed.interior) == {2}

    def test_antichain(self):
        ed = extremal_data(make_poset(3, []))
        assert set(ed.ext) == {1, 2, 3}
        assert ed.rel_e == ()

    def test_chain(self):
        ed = extremal_data(make_poset(3, [(1, 2), (2, 3)]))
        assert set(ed.ext) == {1, 3}
        assert set(ed.rel_e) == {(1, 3)}
        assert set(ed.interior) == {2}


class TestUpDown:
    def test_fork_middle(self, fork_poset):
        assert up_down(fork_poset, 2) == (1, 2, 1)

    def test_chain_middle_equal_counts_give_two(self):
        assert up_down(make_poset(3, [(1, 2), (2, 3)]), 2) == (1, 1, 2)

    def test_antichain(self):
        assert up_down(make_poset(3, []), 2) == (0, 0, 2)


class TestInteriorNeighborhood:
    def test_fork_middle_is_complete_112(self, fork_poset):
        sub = interior_neighborhood(fork_poset, 2)
        assert are_isomorphic(sub, complete_poset([1, 1, 2]))
        assert interior_shape(fork_poset, 2) == (1, 1, 2)

    def test_chain_middle(self):
        chain = make_poset(3, [(1, 2), (2, 3)])
        assert are_isomorphic(interior_neighborhood(chain, 2), complete_poset([1, 1, 1]))

    def test_cycle_poset_wide_interior(self, six_element_cycle_poset):
        assert interior_shape(six_element_cycle_poset, 4) == (2, 1, 2)
        sub = interior_neighborhood(six_element_cycle_poset, 4)
        assert are_isomorphic(sub, complete_poset([2, 1, 2]))

    def test_extremal_element_rejected(self, fork_poset):
        with pytest.raises(NotInterior):
            interior_neighborhood(fork_poset, 1)

    def test_shape_law_across_enumeration(self):
        # n_i = D(P, i), m_i = U(P, i), complete in between
        for n in range(3, 6):
            for P in enumerate_posets(n, max_height=2):
                for i in P.interior:
                    d, one, u = interior_shape(P, i)
                    assert one == 1
                    assert are_isomorphic(
                        interior_neighborhood(P, i), complete_poset([d, 1, u])
                    )


class TestCompletePoset:
    def test_112_is_fork(self, fork_poset):
        assert are_isomorphic(complete_poset([1, 1, 2]), fork_poset)

    def test_11_is_chain(self):
        assert complete_poset([1, 1]).pairs == ((1, 2),)

    def test_211_explicit_relations(self):
        P = complete_poset([2, 1, 1])
        assert set(P.pairs) == {(1, 3), (2, 3), (3, 4), (1, 4), (2, 4)}

    def test_rejects_empty_or_nonpositive(self):
        with pytest.raises(ValueError):
            complete_poset([])
        with pytest.raises(ValueError):
            complete_poset([1, 0, 1])


class TestDisjointSum:
    def test_two_chains(self):
        c2 = make_poset(2, [(1, 2)])
        s = disjoint_sum(c2, c2)
        assert set(s.pairs) == {(1, 2), (3, 4)}
        assert s.components == 2

    def test_components_and_relations_add(self, fork_poset, crown_poset):
        s = disjoint_sum(fork_poset, crown_poset)
        assert s.components == fork_poset.components + crown_poset.components
        assert len(s.pairs) == len(fork_poset.pairs) + len(crown_poset.pairs)

    def test_adding_isolated_point(self, fork_poset):
        s = disjoint_sum(fork_poset, make_poset(1, []))
        assert s.n == 5
        assert s.components == 2

    def test_two_tree_forest_shape(self, two_tree_forest):
        assert two_tree_forest.components == 2
        assert two_tree_forest.height == 2


class TestHasse:
    def test_fork(self, fork_poset):
        assert set(fork_poset.covers) == {(1, 2), (2, 3), (2, 4)}
        assert fork_poset.components == 1
        assert fork_poset.height == 2
        assert fork_poset.heights == (0, 1, 2, 2)

    def test_antichain(self):
        P = make_poset(3, [])
        assert P.covers == ()
        assert P.components == 3
        assert P.height == 0

    def test_covers_skip_transitive_edges(self):
        chain = make_poset(3, [(1, 2), (2, 3)])
        assert set(chain.covers) == {(1, 2), (2, 3)}

    def test_split_components(self, two_tree_forest):
        comps = split_components(two_tree_forest)
        assert len(comps) == 2
        assert all(c.n == 6 for c, _ in comps)


class TestIsForest:
    def test_crown_has_cycle(self, crown_poset):
        ok, cycle = is_forest(crown_poset)
        assert not ok
        assert len(cycle) == 4 and set(cycle) == {1, 2, 3, 4}

    def test_chain_ext_restriction_is_tree(self):
        chain = make_poset(3, [(1, 2), (2, 3)])
        ok, cycle = is_forest(chain, restrict_to_ext=True)
        assert ok and cycle is None

    def test_cycle_poset_ext_restriction(self, six_element_cycle_poset):
        ok, cycle = is_forest(six_element_cycle_poset, restrict_to_ext=True)
        assert not ok
        assert set(cycle) == {1, 2, 5, 6}

    def test_full_hasse_cycle_of_cycle_poset(self, six_element_cycle_poset):
        ok, cycle = is_forest(six_element_cycle_poset)
        assert not ok
        assert set(cycle) == {1, 3, 4, 5}

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_ext_relations_are_ext_covers(self, n):
        # the Ext-restricted diagram takes every relation among Ext as an
        # edge; filtering for covers of Ext, as a cubic loop, keeps them all
        for P in enumerate_posets(n):
            ext = set(P.ext)
            rel = [(i, j) for (i, j) in P.pairs if i in ext and j in ext]
            covers = [
                (i, j)
                for (i, j) in rel
                if not any((i, k) in rel and (k, j) in rel for k in ext)
            ]
            assert covers == rel == list(extremal_data(P).rel_e), P


class TestCanonicalForm:
    def test_fork_is_complete_112(self, fork_poset):
        assert are_isomorphic(fork_poset, complete_poset([1, 1, 2]))

    def test_chain_vs_antichain(self):
        assert not are_isomorphic(make_poset(3, [(1, 2), (2, 3)]), make_poset(3, []))

    def test_vee_vs_wedge(self):
        vee = make_poset(3, [(1, 2), (1, 3)])
        wedge = make_poset(3, [(1, 3), (2, 3)])
        assert not are_isomorphic(vee, wedge)

    def test_invariant_under_relabeling(self):
        rng = random.Random(5)
        for rel in ([(1, 2), (2, 4)], [(1, 3), (2, 3), (3, 4), (1, 5)], []):
            P = make_poset(5, rel)
            for _ in range(6):
                perm = list(range(1, 6))
                rng.shuffle(perm)
                try:
                    Q = relabel(P, dict(zip(range(1, 6), perm)))
                except LabelOrderViolation:
                    continue
                assert canonical_form(P) == canonical_form(Q)

    def test_agrees_with_brute_force_on_n4(self):
        posets = [make_poset(4, rel) for rel in brute_force_labeled_posets(4)]
        rng = random.Random(11)
        for _ in range(300):
            P, Q = rng.choice(posets), rng.choice(posets)
            assert (canonical_form(P) == canonical_form(Q)) == brute_force_isomorphic(P, Q)

    @pytest.mark.parametrize("n,samples", [(5, 120), (6, 60)])
    def test_agrees_with_brute_force_sampled(self, n, samples):
        posets = [make_poset(n, rel) for rel in brute_force_labeled_posets(n)]
        rng = random.Random(n)
        for _ in range(samples):
            P, Q = rng.choice(posets), rng.choice(posets)
            assert (canonical_form(P) == canonical_form(Q)) == brute_force_isomorphic(
                P, Q
            )

    def test_canonical_poset_is_isomorphic_representative(self, fork_poset):
        rep = canonical_poset(fork_poset)
        assert brute_force_isomorphic(rep, fork_poset)

    def test_size_bound(self):
        with pytest.raises(SizeBound):
            canonical_form(make_poset(10, []))


class TestEnumeration:
    def test_two_classes_on_two_elements(self):
        assert len(list(enumerate_posets(2))) == 2

    def test_five_classes_on_three_elements_height_two(self):
        assert len(list(enumerate_posets(3, max_height=2))) == 5

    def test_sixteen_classes_on_four_elements(self):
        assert len(list(enumerate_posets(4))) == 16

    @pytest.mark.parametrize("n,max_height", [(3, None), (4, None), (4, 2), (4, 1)])
    def test_matches_brute_force_count(self, n, max_height):
        ours = len(list(enumerate_posets(n, max_height=max_height)))
        assert ours == brute_force_class_count(n, max_height)

    def test_no_two_isomorphic(self):
        reps = list(enumerate_posets(4))
        for i in range(len(reps)):
            for j in range(i + 1, len(reps)):
                assert not brute_force_isomorphic(reps[i], reps[j])

    def test_connected_only_filter(self):
        allp = list(enumerate_posets(4))
        conn = list(enumerate_posets(4, connected_only=True))
        assert len(conn) == sum(1 for P in allp if P.is_connected) == 10

    def test_deterministic_order(self):
        a = [P.pairs for P in enumerate_posets(5, max_height=2)]
        b = [P.pairs for P in enumerate_posets(5, max_height=2)]
        assert a == b

    def test_size_bound(self):
        with pytest.raises(SizeBound):
            next(enumerate_posets(10))

    def test_height_filter_only_keeps_low_heights(self):
        assert all(P.height <= 1 for P in enumerate_posets(5, max_height=1))


def _digest(posets_iter) -> str:
    return hashlib.sha256(repr([P.pairs for P in posets_iter]).encode()).hexdigest()


class _CallBudgetExceeded(Exception):
    pass


def _within_call_budget(budget: int, fn, *args):
    """fn(*args), raising once more than `budget` Python frames of the
    posets module have been entered (generator resumptions count too)."""
    count = 0

    def tracer(frame, event, arg):
        nonlocal count
        if frame.f_code.co_filename == posets.__file__:
            count += 1
            if count > budget:
                raise _CallBudgetExceeded(f"more than {budget} calls")

    previous = sys.gettrace()
    sys.settrace(tracer)
    try:
        return fn(*args)
    finally:
        sys.settrace(previous)


class TestOrderlyGeneration:
    """Each class is generated once, at its least natural labelling; the
    oracles here share no code with `posets`."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_lex_least_test_agrees_with_brute_force(self, n):
        for rel in brute_force_labeled_posets(n):
            preds = [0] * (n + 1)
            for a, b in rel:
                preds[b] |= 1 << (a - 1)
            least = brute_force_least_pred_masks(n, rel)
            assert posets._is_lex_least(preds, n) == (tuple(preds[1:]) == least), rel

    @pytest.mark.parametrize(
        "n,count", list(zip(range(1, 9), [1, 2, 5, 16, 63, 318, 2045, 16999]))
    )
    def test_class_counts_match_oeis_a000112(self, n, count):
        assert sum(1 for _ in enumerate_posets(n)) == count

    def test_six_element_reps_pairwise_non_isomorphic_by_networkx(self):
        import networkx as nx

        buckets: dict = {}
        for P in enumerate_posets(6):
            G = nx.DiGraph()
            G.add_nodes_from(range(1, P.n + 1))
            G.add_edges_from(P.pairs)
            degrees = tuple(sorted((G.in_degree(v), G.out_degree(v)) for v in G))
            bucket = buckets.setdefault((P.n, G.number_of_edges(), degrees), [])
            assert not any(nx.is_isomorphic(G, H) for H in bucket), P
            bucket.append(G)
        assert sum(map(len, buckets.values())) == 318

    @pytest.mark.parametrize(
        "preds",
        [[0] * 13, [0] * 7 + [0b111111] * 6],
        ids=["antichain-12", "complete-bipartite-6-6"],
    )
    def test_twins_keep_the_search_small(self, preds):
        # without the twin rule these cost 12! and 6! * 6! leaves
        assert _within_call_budget(2000, posets._is_lex_least, preds, 12)

    def test_order_pinned_up_to_seven_elements(self):
        # digests of the order before orderly generation replaced the
        # per-labelling dedupe
        h2 = _digest(P for n in range(1, 8) for P in enumerate_posets(n, max_height=2))
        assert h2 == "c7cd5909185db6527a615da521b4935dc9f78945e6dcf77d2bdfdbafeba309e7"
        full = _digest(P for n in range(1, 8) for P in enumerate_posets(n))
        assert full == "dc0dab118666fa7436af93e88faba72898dff23b217fc47006a48aa97b2629cc"

    def test_order_pinned_at_eight_elements_height_two(self):
        reps = list(enumerate_posets(8, max_height=2))
        assert len(reps) == 6929
        assert _digest(reps) == "4f59d6394d122c819b9c28681bf868a43bf27c42d183593f60bf7af052defdf4"


class TestInterchange:
    def test_json_round_trip(self, fork_poset):
        data = poset_to_json(fork_poset)
        assert data == {"n": 4, "relations": [[1, 2], [1, 3], [1, 4], [2, 3], [2, 4]]}
        assert poset_from_json(json.loads(json.dumps(data))) == fork_poset

    def test_json_rejects_garbage(self):
        with pytest.raises(OutOfRange):
            poset_from_json({"relations": [[1, 2]]})

    def test_dot_export(self, fork_poset):
        dot = poset_to_dot(fork_poset)
        assert "rank=same" in dot
        assert '"1" -> "2";' in dot
        assert dot.count("->") == 3


def test_height_bound_on_interior_neighborhood():
    chain4 = make_poset(4, [(1, 2), (2, 3), (3, 4)])
    with pytest.raises(HeightBound):
        interior_neighborhood(chain4, 2)


def test_poset_is_hashable_and_immutable(fork_poset):
    assert hash(fork_poset) == hash(make_poset(4, [(1, 2), (2, 3), (2, 4)]))
    d = {fork_poset: 1}
    assert d[make_poset(4, [(1, 2), (2, 3), (2, 4)])] == 1
