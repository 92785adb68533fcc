import hashlib
import json
import random
from fractions import Fraction

import pytest

from conftest import cycles_equal, grow_h2_replay
from lieposet.contact import (
    BLOCKS,
    CONTACT_RULES,
    RULES,
    ContactSequence,
    GluingStep,
    Replay,
    _enumerate_steps,
    apply_gluing,
    build_contact_form,
    classify_h2,
    classifier_contact_form,
    contact_form_from_replay,
    cycle_obstruction,
    disconnected_contact_form,
    expected_kernel,
    find_contact_sequence,
    generate_contact_replays,
    index_contribution,
    is_contact,
    kernel_is_span_of,
    replay_sequence,
    validate_contact_sequence,
    verify_contact_form,
    verify_replay,
)
from lieposet.errors import (
    HeightBound,
    InternalInvariant,
    InvalidSequence,
    NotFrobenius,
    PolarityMismatch,
    RuleBlockMismatch,
    RulePreconditionViolated,
)
from lieposet.liealg import (
    Functional,
    build_type_a,
    index,
    index_formula_h2,
    kirillov_rows,
    random_functional,
)
from lieposet.linalg import exact_determinant, sparse_determinant
from lieposet.posets import (
    _canonical_encoding,
    are_isomorphic,
    complete_poset,
    disjoint_sum,
    enumerate_posets,
    make_poset,
    poset_to_json,
)

PHI_0 = Functional.on_positions({(2, 2): 1, (1, 3): 1, (2, 3): 1})


class TestVerifyContactForm:
    def test_complete_111_with_step_zero_form(self):
        g = build_type_a(complete_poset([1, 1, 1]))
        assert verify_contact_form(g, PHI_0)

    def test_zero_form_never_verifies(self):
        g = build_type_a(complete_poset([1, 1, 1]))
        assert not verify_contact_form(g, Functional.zero())

    def test_crown_admits_no_contact_form(self, crown_poset):
        g = build_type_a(crown_poset)
        assert g.dim == 3 + 4  # odd, yet obstructed
        rng = random.Random(17)
        for _ in range(8):
            assert not verify_contact_form(g, random_functional(g, rng, 10**4))


class TestIsContact:
    def test_noncontact_algebra_certified_symbolically(self, index_one_noncontact_algebra):
        v = is_contact(index_one_noncontact_algebra, trials=3, seed=5)
        assert v.kind == "not-contact-certified"
        assert "Pfaffian" in v.reason

    def test_complete_111_witness(self):
        g = build_type_a(complete_poset([1, 1, 1]))
        v = is_contact(g, trials=3, seed=5)
        assert v.is_contact
        assert verify_contact_form(g, v.form)

    def test_even_dimension_certified(self):
        g = build_type_a(make_poset(2, [(1, 2)]))
        v = is_contact(g, trials=1, seed=0)
        assert v.kind == "not-contact-certified"
        assert "even" in v.reason

    def test_crown_certified_by_classifier(self, crown_poset):
        v = is_contact(build_type_a(crown_poset), trials=2, seed=0)
        assert v.kind == "not-contact-certified"

    def test_disconnected_contact_poset_witness(self):
        P = disjoint_sum(make_poset(2, [(1, 2)]), make_poset(1, []))
        g = build_type_a(P)
        v = is_contact(g, trials=3, seed=9)
        assert v.is_contact


class TestCycleObstruction:
    def test_cycle_poset(self, six_element_cycle_poset):
        cyc = cycle_obstruction(six_element_cycle_poset)
        assert cyc is not None
        assert set(cyc) == {1, 2, 5, 6}
        # the restriction is the crown, up to labels
        assert cycles_equal(cyc, [1, 5, 2, 6]) or len(cyc) == 4

    def test_contact_posets_have_none(self):
        for P in enumerate_posets(5, max_height=2):
            if P.is_connected and P.height == 2 and classify_h2(P).contact:
                assert cycle_obstruction(P) is None

    def test_complete_212_four_cycle(self):
        cyc = cycle_obstruction(complete_poset([2, 1, 2]))
        assert cyc is not None
        assert set(cyc) == {1, 2, 4, 5}


class TestClassify:
    def test_two_tree_forest_contact(self, two_tree_forest):
        cls = classify_h2(two_tree_forest)
        assert cls.contact
        assert cls.components is not None

    def test_connected_height_one_not_contact(self):
        for rel in ([(1, 2)], [(1, 2), (1, 3)], [(1, 3), (2, 3)]):
            P = make_poset(3, rel) if max(max(p) for p in rel) == 3 else make_poset(2, rel)
            if P.is_connected and P.height == 1:
                cls = classify_h2(P)
                assert not cls.contact
                assert cls.obstruction.kind == "connected-height-one"

    def test_complete_111_one_step_sequence(self):
        cls = classify_h2(complete_poset([1, 1, 1]))
        assert cls.contact
        assert len(cls.sequence.steps) == 1
        assert cls.sequence.steps[0].block == "P111"

    def test_antichain_two_is_contact(self):
        cls = classify_h2(make_poset(2, []))
        assert cls.contact

    def test_single_point_not_contact(self):
        assert not classify_h2(make_poset(1, [])).contact

    def test_three_components_never_contact(self):
        assert classify_h2(make_poset(3, [])).obstruction.kind == "component-count"

    def test_component_not_frobenius_named(self):
        P = disjoint_sum(complete_poset([1, 1, 1]), make_poset(2, [(1, 2)]))
        cls = classify_h2(P)
        assert not cls.contact
        assert cls.obstruction.kind == "component-not-frobenius"

    def test_interior_shape_obstruction(self, six_element_cycle_poset):
        cls = classify_h2(six_element_cycle_poset)
        assert not cls.contact
        assert cls.obstruction.kind == "interior-shape"
        assert cls.obstruction.witness == (4, (2, 1, 2))

    def test_chain_block_count_obstruction(self):
        # two interior elements with two-point neighborhoods: glue two
        # three-chains at the bottom
        P = make_poset(5, [(1, 2), (2, 3), (1, 4), (4, 5)])
        cls = classify_h2(P)
        assert not cls.contact
        assert cls.obstruction.kind == "chain-block-count"

    def test_height_bound(self):
        with pytest.raises(HeightBound):
            classify_h2(make_poset(4, [(1, 2), (2, 3), (3, 4)]))

    def test_contact_iff_oracle_up_to_five(self):
        rng = random.Random(23)
        for n in range(2, 6):
            for P in enumerate_posets(n, max_height=2):
                cls = classify_h2(P)
                g = build_type_a(P)
                if cls.contact:
                    phi = classifier_contact_form(P, cls, seed=1)
                    assert verify_contact_form(g, phi)
                    assert index_formula_h2(P) == 1
                elif g.dim % 2 == 1:
                    for _ in range(3):
                        assert not verify_contact_form(g, random_functional(g, rng, 10**5))


class TestApplyGluing:
    def test_rule_c_adjoins_wide_block(self):
        Q = complete_poset([1, 1, 1])
        res = apply_gluing(Q, GluingStep("P112", "C", target_x=1))
        assert res.poset.n == 6
        assert res.poset.is_connected
        diff = index_formula_h2(res.poset) - index_formula_h2(Q)
        assert diff == index_contribution("P112", "C") == 0

    def test_identifying_both_endpoints_of_an_edge_block_adds_one(self):
        # host with an unrelated min-max pair: attach an edge block on it
        Q = apply_gluing(
            complete_poset([1, 1, 2]), GluingStep("P11", "A1", target_y=3)
        ).poset
        mins, maxs = Q.minimal, Q.maximal
        pair = next(
            (x, y) for x in mins for y in maxs if not Q.related(x, y)
        )
        res = apply_gluing(Q, GluingStep("P11", "E1", target_x=pair[0], target_y=pair[1]))
        diff = index_formula_h2(res.poset) - index_formula_h2(Q)
        assert diff == index_contribution("P11", "E1") == 1

    def test_d1_requires_related_targets(self):
        Q = apply_gluing(
            complete_poset([1, 1, 2]), GluingStep("P11", "A1", target_y=3)
        ).poset
        x, y = next(
            (x, y) for x in Q.minimal for y in Q.maximal if not Q.related(x, y)
        )
        with pytest.raises(RulePreconditionViolated):
            apply_gluing(Q, GluingStep("P11", "D1", target_x=x, target_y=y))

    def test_d1_noop_on_edge_block(self):
        Q = complete_poset([1, 1, 1])
        res = apply_gluing(Q, GluingStep("P11", "D1", target_x=1, target_y=3))
        assert res.poset == Q

    def test_polarity_mismatch(self):
        Q = complete_poset([1, 1, 1])
        with pytest.raises(PolarityMismatch):
            apply_gluing(Q, GluingStep("P112", "C", target_x=3))  # 3 is maximal

    def test_missing_and_extraneous_targets(self):
        Q = complete_poset([1, 1, 1])
        with pytest.raises(RulePreconditionViolated):
            apply_gluing(Q, GluingStep("P112", "C"))
        with pytest.raises(RulePreconditionViolated):
            apply_gluing(Q, GluingStep("P112", "C", target_x=1, target_y=3))

    def test_distinct_a_targets_required(self):
        Q = complete_poset([2, 1, 2])
        with pytest.raises(RulePreconditionViolated):
            apply_gluing(Q, GluingStep("P112", "F", target_x=1, target_y=4, target_z=4))

    def test_rule_block_mismatch(self):
        Q = complete_poset([1, 1, 1])
        with pytest.raises(RuleBlockMismatch):
            index_contribution("P11", "B")
        with pytest.raises(RuleBlockMismatch):
            apply_gluing(Q, GluingStep("P11", "F", target_x=1, target_y=3))

    def test_identifying_a_point_with_itself_is_a_cycle(self):
        # a single point is both minimal and maximal, and E1 asks for an
        # unrelated pair, so the edge block's relation becomes a loop
        with pytest.raises(InternalInvariant, match="directed cycle"):
            apply_gluing(make_poset(1, []), GluingStep("P11", "E1", target_x=1, target_y=1))


class TestIndexContribution:
    @pytest.mark.parametrize(
        "block,rule,expected",
        [
            ("P112", "F", 0),
            ("P111", "A1", 1),
            ("P211", "H", 2),
            ("P11", "C", 0),
            ("P112", "B", 1),
            ("P211", "E2", 1),
        ],
    )
    def test_values(self, block, rule, expected):
        assert index_contribution(block, rule) == expected

    def test_offsets_against_formula_on_random_hosts(self):
        # a smaller seeded version of the exhaustive offset check
        rng = random.Random(31)
        pool = _random_host_pool(rng, walks=24, steps=4)
        combos = [
            (b, r)
            for b in BLOCKS
            for r in RULES
            if _applicable(b, r)
        ]
        for block, rule in combos:
            hits = 0
            for Q in pool:
                for step in _enumerate_steps(
                    Q, block, allow_p111=True, rules=(rule,), include_noops=True
                ):
                    diff = index_formula_h2(apply_gluing(Q, step).poset) - index_formula_h2(Q)
                    assert diff == index_contribution(block, rule), (block, rule, Q)
                    hits += 1
                    break
                if hits >= 10:
                    break
            assert hits > 0, f"pool never admitted {block} under {rule}"


def _applicable(block, rule):
    from lieposet.contact import rule_applies_to_block

    return rule_applies_to_block(rule, block)


def _random_host_pool(rng, walks, steps):
    """Connected height-two hosts grown by random gluings (all twelve rules)."""
    pool = []
    kinds = list(BLOCKS)
    for _ in range(walks):
        rep = Replay.start(rng.choice(["P111", "P112", "P211"]))
        host = rep.poset
        for _ in range(steps):
            options = []
            for kind in kinds:
                options.extend(
                    _enumerate_steps(host, kind, allow_p111=True, rules=tuple(RULES))
                )
            if not options:
                break
            host = apply_gluing(host, rng.choice(options)).poset
        if host.height == 2:
            pool.append(host)
    return pool


class TestFindContactSequence:
    def test_one_step_for_complete_111(self):
        seq = find_contact_sequence(complete_poset([1, 1, 1]))
        assert seq is not None and len(seq.steps) == 1

    def test_round_trip_through_gluing(self):
        Q = complete_poset([1, 1, 1])
        built = apply_gluing(Q, GluingStep("P112", "C", target_x=1)).poset
        seq = find_contact_sequence(built)
        assert seq is not None and len(seq.steps) == 2
        assert are_isomorphic(replay_sequence(seq).poset, built)

    def test_wide_interior_rules_out_a_sequence(self):
        assert find_contact_sequence(complete_poset([1, 1, 3])) is None
        assert find_contact_sequence(complete_poset([3, 1, 1])) is None
        assert find_contact_sequence(complete_poset([2, 1, 2])) is None

    def test_never_uses_banned_rules(self):
        for n in range(3, 7):
            for P in enumerate_posets(n, max_height=2, connected_only=True):
                if P.height != 2:
                    continue
                seq = find_contact_sequence(P)
                if seq is not None:
                    assert all(s.rule in CONTACT_RULES for s in seq.steps[1:])
                    assert are_isomorphic(replay_sequence(seq).poset, P)

    def test_sequences_pinned_through_seven_elements(self):
        # the sequences of the backtracking search that greedy attachment
        # replaced: 119 over the 1,020 connected posets of height <= 2
        found = []
        for n in range(1, 8):
            for P in enumerate_posets(n, max_height=2, connected_only=True):
                seq = find_contact_sequence(P) if P.height == 2 else None
                found.append(None if seq is None else seq.to_json())
        assert (len(found), sum(s is not None for s in found)) == (1020, 119)
        digest = hashlib.sha256(json.dumps(found).encode()).hexdigest()
        assert digest == "0cfc21457fe6ac47c3791d402f6b22176d62da06d1f28d8c9b74f3a68e9051fd"

    def test_classifier_agrees_with_search(self):
        for P in enumerate_posets(6, max_height=2, connected_only=True):
            if P.height != 2:
                continue
            assert (find_contact_sequence(P) is not None) == classify_h2(P).contact

    def test_wide_interior_forces_not_contact(self):
        # neighborhoods with four extremal points exclude a sequence even
        # when the index works out to one
        from lieposet.posets import interior_shape

        hit = 0
        for P in enumerate_posets(6, max_height=2, connected_only=True):
            if P.height != 2:
                continue
            shapes = {interior_shape(P, i) for i in P.interior}
            if shapes & {(1, 1, 3), (3, 1, 1)}:
                hit += 1
                assert not classify_h2(P).contact
        assert hit > 0


class TestBuildContactForm:
    def test_step_zero_verbatim(self):
        seq = ContactSequence((GluingStep("P111"),))
        phi = build_contact_form(seq)
        assert phi.coeffs == {
            (2, 2): Fraction(1),
            (1, 3): Fraction(1),
            (2, 3): Fraction(1),
        }

    def test_rule_f_adds_single_term(self):
        rep = Replay.start("P111")
        rep = rep.apply(GluingStep("P112", "C", target_x=1))
        before = contact_form_from_replay(rep)
        x = rep.poset.minimal[0]
        y, z = [v for v in rep.poset.maximal if rep.poset.related(x, v)][:2]
        rep2 = rep.apply(GluingStep("P112", "F", target_x=x, target_y=y, target_z=z))
        after = contact_form_from_replay(rep2)
        roles = rep2.roles[-1]
        assert after.coeffs.get((roles["m"], roles["z"])) == 1
        assert len(after.coeffs) == len(before.coeffs) + 1

    def test_rule_a1_edge_block_adds_span_term(self):
        rep = Replay.start("P111")
        y = rep.poset.maximal[0]
        rep2 = rep.apply(GluingStep("P11", "A1", target_y=y))
        roles = rep2.roles[-1]
        phi = contact_form_from_replay(rep2)
        assert phi.coeffs.get((roles["x"], roles["y"])) == 1
        assert len(phi.coeffs) == 4

    def test_all_coefficients_are_one(self):
        for rep in generate_contact_replays(3):
            phi = contact_form_from_replay(rep)
            assert all(c == 1 for c in phi.coeffs.values())


class TestSequenceValidation:
    def test_rule_outside_contact_set_rejected(self):
        seq = ContactSequence(
            (GluingStep("P111"), GluingStep("P11", "E1", target_x=1, target_y=3))
        )
        with pytest.raises(InvalidSequence):
            validate_contact_sequence(seq)

    def test_two_chain_blocks_rejected(self):
        seq = ContactSequence((GluingStep("P111"), GluingStep("P111", "C", target_x=1)))
        with pytest.raises(InvalidSequence) as err:
            validate_contact_sequence(seq)
        assert "exactly once" in str(err.value)

    def test_no_chain_block_rejected(self):
        seq = ContactSequence((GluingStep("P112"),))
        with pytest.raises(InvalidSequence):
            validate_contact_sequence(seq)

    def test_late_chain_block_rejected(self):
        seq = ContactSequence((GluingStep("P112"), GluingStep("P111", "C", target_x=1)))
        with pytest.raises(InvalidSequence) as err:
            validate_contact_sequence(seq)
        assert "initial" in str(err.value)

    def test_json_round_trip(self):
        seq = ContactSequence(
            (GluingStep("P111"), GluingStep("P112", "C", target_x=1))
        )
        data = seq.to_json()
        assert data == {
            "steps": [{"block": "P111"}, {"block": "P112", "rule": "C", "c": 1}]
        }
        assert ContactSequence.from_json(data) == seq


class TestExpectedKernel:
    def test_complete_111_explicit(self):
        P = complete_poset([1, 1, 1])
        coords = expected_kernel(P)
        assert coords == [Fraction(2), Fraction(-1), Fraction(3), Fraction(0), Fraction(0)]

    def test_trace_zero(self):
        # diagonal part must cancel: sum over difference-basis coordinates
        # of (1 - multiplicity) is zero by construction; check via matrices
        P = complete_poset([1, 1, 1])
        g = build_type_a(P)
        coords = expected_kernel(P)
        total = {}
        for k, c in enumerate(coords):
            if not c:
                continue
            for pos, v in g.matrix_entries(k).items():
                total[pos] = total.get(pos, Fraction(0)) + c * v
        trace = sum(total.get((i, i), Fraction(0)) for i in range(1, P.n + 1))
        assert trace == 0

    def test_kernel_spans_for_enumerated_contact_posets(self):
        for n in range(3, 7):
            for P in enumerate_posets(n, max_height=2, connected_only=True):
                if P.height != 2:
                    continue
                cls = classify_h2(P)
                if not cls.contact:
                    continue
                g = build_type_a(P)
                phi = classifier_contact_form(P, cls)
                assert kernel_is_span_of(g, phi, expected_kernel(P)), P


class TestDisconnectedContactForm:
    def test_two_wide_trees(self):
        P1 = complete_poset([1, 1, 2])
        phi = disconnected_contact_form(P1, P1, seed=4)
        g = build_type_a(disjoint_sum(P1, P1))
        assert verify_contact_form(g, phi)

    def test_two_chains(self):
        c2 = make_poset(2, [(1, 2)])
        phi = disconnected_contact_form(c2, c2, seed=4)
        g = build_type_a(disjoint_sum(c2, c2))
        assert g.dim == 5
        assert verify_contact_form(g, phi)

    def test_not_frobenius_rejected(self):
        with pytest.raises(NotFrobenius):
            disconnected_contact_form(complete_poset([1, 1, 1]), make_poset(2, [(1, 2)]))


@pytest.fixture(scope="module")
def four_step_states():
    return list(generate_contact_replays(4))


class TestReplayInvariants:
    def test_index_profile_around_chain_block(self):
        # before the P(1,1,1) block the index stays 0, afterwards 1
        for rep in generate_contact_replays(3, p111_first=False, include_form=False):
            expected = 1 if rep.p111_used else 0
            assert index_formula_h2(rep.poset) == expected, rep.steps

    def test_every_generated_state_verifies(self):
        for rep in generate_contact_replays(3):
            assert verify_replay(rep)

    def test_bordered_determinant_is_square_of_rank(self, four_step_states):
        # det of the bordered Kirillov matrix of the recursive contact form
        # is exactly (|P| - 1)^2 on every state; pins the exact scale.  The
        # integer determinant of R is s^size times that of R / s.
        assert len(four_step_states) == 4621
        for rep in four_step_states:
            alg = build_type_a(rep.poset)
            rows, s = kirillov_rows(alg, contact_form_from_replay(rep), bordered=True)
            size = len(rows)
            det = exact_determinant([[row.get(j, 0) for j in range(size)] for row in rows])
            assert Fraction(det, s**size) == (rep.poset.n - 1) ** 2, rep.steps

    @pytest.mark.parametrize("seed, min_n", [(2, 120), (3, 220), (4, 300)])
    def test_large_replay_determinant_and_index(self, seed, min_n):
        # past the enumerated states, on contact replays of dimension 300 to
        # 800: the same bordered determinant (|P| - 1)^2, taken on the
        # sparse integer rows R (s^size times that of R / s), and index 1 by
        # the rank modulo p and by the height-two formula
        rep = grow_h2_replay(random.Random(seed), min_n, contact=True)
        alg = build_type_a(rep.poset)
        assert 300 <= alg.dim <= 800
        rows, s = kirillov_rows(alg, contact_form_from_replay(rep), bordered=True)
        assert sparse_determinant(rows) == (rep.poset.n - 1) ** 2 * s ** len(rows)
        assert index(alg).value == index_formula_h2(rep.poset) == 1

    def test_states_pinned_at_four_steps(self, four_step_states):
        # posets and build scripts of every state, as the gluing gave them
        # when it closed the relation with its own loops
        states = [[poset_to_json(r.poset), r.sequence().to_json()] for r in four_step_states]
        assert len(states) == 4621
        digest = hashlib.sha256(json.dumps(states).encode()).hexdigest()
        assert digest == "4333a764fdd52bba40107c7c44cb7cde6bb9a74c3b1e1cba9c57b3f14844ce16"

    def test_generated_states_are_connected_height_two_or_less(self):
        for rep in generate_contact_replays(3):
            assert rep.poset.is_connected
            assert rep.poset.height <= 2

    def test_form_keys_without_the_chain_block_first(self):
        # only replays whose P(1,1,1) block comes first carry a contact form;
        # the rest are keyed by their poset, so every poset is still reached
        with_form = list(generate_contact_replays(3, p111_first=False))
        without = list(generate_contact_replays(3, p111_first=False, include_form=False))
        assert len(with_form) > len(without)

        def classes(reps):
            return {(_canonical_encoding(r.poset), r.p111_used) for r in reps}

        assert classes(with_form) == classes(without)
        assert any(r.p111_pos not in (0, None) for r in with_form)
        assert all(verify_replay(r) for r in with_form if r.p111_pos == 0)

    def test_deep_generation_with_element_cap(self):
        for rep in generate_contact_replays(4, max_elements=9):
            assert rep.poset.n <= 9
            assert verify_replay(rep)
