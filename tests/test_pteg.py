import random
from fractions import Fraction

import pytest

from maxplus import (
    NEG_INF,
    ConsistencyKind,
    DimensionMismatch,
    InfeasibleHorizon,
    PtegSystem,
    Trajectory,
    TropicalMatrix,
    build_block_matrix,
    check_consistency,
    closure_sequence,
    finite_weak_feasibility,
    synthesize_trajectory,
    validate_trajectory,
)
from maxplus import pteg

from helpers import all_eps_system, identity, random_system, top_left

NEG = "-inf"

RAILWAY_FIXED_CLOSURE = TropicalMatrix(
    [
        [0, NEG, NEG, NEG],
        [NEG, 0, NEG, NEG],
        [NEG, NEG, 0, NEG],
        [0, 3, 0, 0],
    ]
)


class TestPtegSystem:
    def test_rejects_plus_inf(self):
        with pytest.raises(ValueError):
            PtegSystem(
                dynamics=TropicalMatrix([["+inf"]]),
                backward=TropicalMatrix.epsilon(1),
                within=TropicalMatrix.epsilon(1),
            )

    def test_rejects_shape_mismatch(self):
        with pytest.raises(DimensionMismatch):
            PtegSystem(
                dynamics=TropicalMatrix.epsilon(2),
                backward=TropicalMatrix.epsilon(3),
                within=TropicalMatrix.epsilon(2),
            )

    @pytest.mark.parametrize("block", ["backward", "within", "extra_forward"])
    def test_rejects_plus_inf_in_every_block(self, block):
        names = ("dynamics", "backward", "within")
        blocks = {name: TropicalMatrix.epsilon(1) for name in names}
        blocks[block] = TropicalMatrix([["+inf"]])
        with pytest.raises(ValueError, match=r"\+inf"):
            PtegSystem(**blocks)

    def test_blocks_are_stored_at_one_scale(self):
        system = PtegSystem(
            dynamics=TropicalMatrix([["1/2"]]),
            backward=TropicalMatrix([["1/3"]]),
            within=TropicalMatrix([[0]]),
        )
        blocks = (system.within, system.backward, system.forward)
        assert {m._scale for m in blocks} == {6}
        assert system.backward == TropicalMatrix([["1/3"]])
        assert system.backward[0, 0] == Fraction(1, 3)

    def test_block_spec_is_the_system(self, two_node):
        # the benchmark's cases still call block_spec()
        assert two_node.block_spec() is two_node

    def test_extra_forward_defaults_to_no_constraints(self, two_node):
        assert two_node.extra_forward == TropicalMatrix.epsilon(2)
        assert two_node.forward == two_node.dynamics

    def test_forward_combines_dynamics_and_extra(self):
        system = PtegSystem(
            dynamics=TropicalMatrix([[1, NEG], [NEG, NEG]]),
            backward=TropicalMatrix.epsilon(2),
            within=TropicalMatrix.epsilon(2),
            extra_forward=TropicalMatrix([[NEG, 4], [NEG, NEG]]),
        )
        assert system.forward == TropicalMatrix([[1, 4], [NEG, NEG]])


class TestClosureSequence:
    def test_two_node_values(self, two_node):
        seq = closure_sequence(two_node, 5)
        assert seq[4] == TropicalMatrix([[0, NEG], [4, 0]])
        assert seq[5] == TropicalMatrix([[0, NEG], [5, 0]])

    def test_unconstrained_system_stays_at_identity(self):
        seq = closure_sequence(all_eps_system(), 6)
        assert all(m == identity(2) for m in seq)

    def test_railway_reaches_fixed_point(self, railway):
        seq = closure_sequence(railway(-14), 17)
        assert seq[16] == RAILWAY_FIXED_CLOSURE
        assert seq[17] == RAILWAY_FIXED_CLOSURE

    def test_length(self, two_node):
        assert len(closure_sequence(two_node, 0)) == 1
        assert len(closure_sequence(two_node, 7)) == 8

    def test_saturation_is_absorbing(self, railway):
        seq = closure_sequence(railway(-13), 6)
        first = next(k for k, m in enumerate(seq) if not m.rmax_valued)
        assert first == 3
        # once saturated, later closures keep the +inf entries
        for k in range(first, 6):
            assert not seq[k].rmax_valued
            assert seq[k] <= seq[k + 1]

    def test_monotone_and_star_shaped(self):
        rng = random.Random(3301)
        for _ in range(25):
            system = random_system(rng, rng.randint(1, 3))
            seq = closure_sequence(system, 6)
            for a, b in zip(seq, seq[1:]):
                assert a <= b
            for m in seq:
                assert m.is_star_matrix()

    def test_stabilization_persists(self):
        rng = random.Random(3302)
        found = 0
        for _ in range(40):
            system = random_system(rng, rng.randint(1, 3))
            seq = closure_sequence(system, 12)
            for k in range(11):
                if seq[k] == seq[k + 1]:
                    assert seq[k + 1] == seq[min(k + 2, 12)]
                    found += 1
                    break
        assert found > 0

    def test_matches_unrolled_corner(self):
        rng = random.Random(3303)
        for _ in range(15):
            system = random_system(rng, rng.randint(1, 3))
            n = system.size
            seq = closure_sequence(system, 5)
            for k in range(6):
                unrolled = build_block_matrix(system, k + 1)
                assert seq[k] == top_left(unrolled.star(), n, n)


class TestCheckConsistency:
    def test_two_node_remains_open(self, two_node):
        verdict = check_consistency(two_node)
        assert verdict.kind is ConsistencyKind.NOT_CONSISTENT_WEAK_OPEN
        assert verdict.verified_up_to == 40  # 10 * n^2
        assert verdict.fixed_closure is None and verdict.first_divergent is None

    def test_two_node_not_stabilized_at_theorem_index(self, two_node):
        seq = closure_sequence(two_node, 5)
        assert seq[4] != seq[5]  # the n^2 stabilization test fails

    def test_probe_bound_respected(self, two_node):
        verdict = check_consistency(two_node, probe_bound=55)
        assert verdict.verified_up_to == 55

    def test_railway_consistent(self, railway):
        verdict = check_consistency(railway(-14))
        assert verdict.kind is ConsistencyKind.CONSISTENT
        assert verdict.fixed_closure == RAILWAY_FIXED_CLOSURE
        assert verdict.fixed_closure.is_star_matrix()

    def test_late_finite_repeat_is_consistent(self, monkeypatch, railway):
        # No system is known to repeat after index n^2 + 1; a finite repeat
        # proves consistency at any index (see check_consistency).
        system = railway(Fraction("-14.5"))
        _, closure, fixed = pteg._stopping_closure(system, 100)
        assert fixed
        late = (system.size**2 + 7, closure, True)
        monkeypatch.setattr(pteg, "_stopping_closure", lambda system, last: late)
        verdict = check_consistency(system)
        assert verdict.kind is ConsistencyKind.CONSISTENT
        assert verdict.fixed_closure is closure
        assert verdict.first_divergent is None and verdict.verified_up_to is None

    def test_railway_too_tight_window(self, railway):
        verdict = check_consistency(railway(-13))
        assert verdict.kind is ConsistencyKind.NOT_WEAKLY_CONSISTENT
        assert verdict.first_divergent == 3

    def test_divergence_vs_finite_feasibility(self):
        rng = random.Random(3304)
        seen = set()
        for _ in range(60):
            system = random_system(rng, rng.randint(1, 3))
            verdict = check_consistency(system)
            seen.add(verdict.kind)
            if verdict.kind is ConsistencyKind.NOT_WEAKLY_CONSISTENT:
                assert not finite_weak_feasibility(system, verdict.first_divergent + 1)
            elif verdict.kind is ConsistencyKind.CONSISTENT:
                assert all(finite_weak_feasibility(system, k) for k in range(1, 11))
        assert ConsistencyKind.NOT_WEAKLY_CONSISTENT in seen
        assert ConsistencyKind.CONSISTENT in seen


class TestTrajectory:
    def test_inputs_replay_states(self):
        with pytest.raises(ValueError):
            Trajectory(states=((0,), (1,)), inputs=((2,),))

    def test_inputs_are_the_successor_states(self):
        t = Trajectory(states=((0, Fraction(1, 2)), (1, 1), (3, 2)))
        assert t.inputs == ((1, 1), (3, 2))
        assert Trajectory(states=((0,),)).inputs == ()

    def test_entries_must_be_finite(self):
        with pytest.raises(ValueError):
            Trajectory(states=((0,), (NEG_INF,)))

    def test_widths_must_agree(self):
        with pytest.raises(ValueError):
            Trajectory(states=((0, 0), (1,)))

    def test_horizon(self):
        t = Trajectory(states=((0, 0), (1, 1)))
        assert t.horizon == 2


class TestSynthesizeTrajectory:
    def test_pure_chain(self, two_node):
        # drop the window constraints, keep only the forward dynamics
        system = PtegSystem(
            dynamics=two_node.dynamics,
            backward=TropicalMatrix.epsilon(2),
            within=TropicalMatrix.epsilon(2),
        )
        t = synthesize_trajectory(system, 3)
        assert t.states == ((0, 0), (2, 0), (4, 0))
        assert t.inputs == ((2, 0), (4, 0))
        assert validate_trajectory(system, t)

    def test_railway_feasible_window(self, railway):
        system = railway(-14)
        t = synthesize_trajectory(system, 3)
        assert t.horizon == 3 and len(t.states[0]) == 4
        assert validate_trajectory(system, t)

    def test_railway_infeasible_window_diverges(self, railway):
        with pytest.raises(InfeasibleHorizon) as info:
            synthesize_trajectory(railway(-13), 8)
        assert info.value.reason == "divergent"

    def test_inputs_dominate_dynamics(self, railway):
        system = railway(-14)
        t = synthesize_trajectory(system, 4)
        for x_k, u_k in zip(t.states, t.inputs):
            pushed = (system.dynamics @ TropicalMatrix.column(x_k)).column_values()
            assert all(u >= p for u, p in zip(u_k, pushed))

    def test_seed_shifts_first_occurrence(self, railway):
        system = railway(-14)
        t = synthesize_trajectory(system, 3, seed=[100, 100, 100, 100])
        assert validate_trajectory(system, t)
        assert all(v >= 100 for v in t.states[0])

    def test_seed_validation(self, two_node):
        with pytest.raises(DimensionMismatch):
            synthesize_trajectory(two_node, 3, seed=[0])
        with pytest.raises(ValueError):
            synthesize_trajectory(two_node, 3, seed=[0, NEG_INF])

    def test_horizon_validation(self, two_node):
        with pytest.raises(ValueError):
            synthesize_trajectory(two_node, 1)


class TestValidateTrajectory:
    def test_violation_detected(self, two_node):
        t = Trajectory(states=((0, 0), (1, 1)))
        # forward step needs x1(2) >= 2 + x1(1) = 2, but x1(2) = 1
        assert not validate_trajectory(two_node, t)

    # x1(k) >= 1 + x2(k) (within), x1(k) >= x1(k+1) - 5 (backward) and
    # x1(k+1) >= 2 + x1(k) (forward); each schedule breaks one family only
    @pytest.mark.parametrize(
        "states",
        [((1, 1), (3, 0)), ((1, 0), (7, 0)), ((1, 0), (2, 0))],
        ids=["within", "backward", "forward"],
    )
    def test_each_family_is_checked(self, states):
        system = PtegSystem(
            dynamics=TropicalMatrix([[2, NEG], [NEG, NEG]]),
            backward=TropicalMatrix([[-5, NEG], [NEG, NEG]]),
            within=TropicalMatrix([[NEG, 1], [NEG, NEG]]),
        )
        assert validate_trajectory(system, Trajectory(((1, 0), (3, 0))))
        assert not validate_trajectory(system, Trajectory(states))

    def test_unconstrained_accepts_anything_finite(self):
        t = Trajectory(states=((5, -3), (0, 0)))
        assert validate_trajectory(all_eps_system(), t)

    def test_width_checked(self, railway):
        t = Trajectory(states=((0, 0), (0, 0)))
        with pytest.raises(DimensionMismatch):
            validate_trajectory(railway(-14), t)

    def test_synthesized_always_valid(self):
        rng = random.Random(3305)
        produced = 0
        for _ in range(40):
            system = random_system(rng, rng.randint(1, 3))
            try:
                t = synthesize_trajectory(system, rng.randint(2, 5))
            except InfeasibleHorizon:
                continue
            produced += 1
            assert validate_trajectory(system, t)
        assert produced > 0
