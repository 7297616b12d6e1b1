import random

import pytest

from maxplus import (
    NEG_INF,
    DimensionMismatch,
    PtegSystem,
    TropicalMatrix,
    build_block_matrix,
    export_dot,
    finite_weak_feasibility,
)

from conftest import make_railway
from helpers import random_matrix, top_left

NEG = "-inf"


def two_node_system():
    return PtegSystem(
        dynamics=TropicalMatrix([[2, NEG], [NEG, NEG]]),
        backward=TropicalMatrix([[NEG, NEG], [NEG, -1]]),
        within=TropicalMatrix([[NEG, NEG], [0, NEG]]),
    )


class TestBlockMatrix:
    def test_single_stage_is_within_block(self):
        system = two_node_system()
        assert build_block_matrix(system, 1) == system.within

    def test_two_stages(self):
        system = two_node_system()
        expected = TropicalMatrix(
            [
                [NEG, NEG, NEG, NEG],
                [0, NEG, NEG, -1],
                [2, NEG, NEG, NEG],
                [NEG, NEG, 0, NEG],
            ]
        )
        assert build_block_matrix(system, 2) == expected

    def test_three_stages_literal(self):
        expected = TropicalMatrix(
            [
                [NEG, NEG, NEG, NEG, NEG, NEG],
                [0, NEG, NEG, -1, NEG, NEG],
                [2, NEG, NEG, NEG, NEG, NEG],
                [NEG, NEG, 0, NEG, NEG, -1],
                [NEG, NEG, 2, NEG, NEG, NEG],
                [NEG, NEG, NEG, NEG, 0, NEG],
            ]
        )
        assert build_block_matrix(two_node_system(), 3) == expected

    def test_leading_stages_nest(self):
        rng = random.Random(2102)
        for _ in range(20):
            n = rng.randint(1, 3)
            system = PtegSystem(
                within=random_matrix(rng, n),
                backward=random_matrix(rng, n),
                dynamics=random_matrix(rng, n),
            )
            horizon = rng.randint(2, 6)
            big = build_block_matrix(system, horizon)
            small = build_block_matrix(system, horizon - 1)
            assert top_left(big, small.rows, small.cols) == small

    def test_block_shapes_checked(self):
        with pytest.raises(DimensionMismatch):
            PtegSystem(
                dynamics=TropicalMatrix.epsilon(2),
                backward=TropicalMatrix.epsilon(3),
                within=TropicalMatrix.epsilon(2),
            )

    def test_horizon_positive(self):
        with pytest.raises(ValueError):
            build_block_matrix(two_node_system(), 0)


class TestWeakFeasibility:
    def test_two_node_feasible_at_every_probed_horizon(self):
        system = two_node_system()
        assert all(finite_weak_feasibility(system, k) for k in range(1, 9))

    def test_railway_minus_13_fails_at_four_stages(self):
        system = make_railway(-13)
        assert not finite_weak_feasibility(system, 4)

    def test_trivial_single_stage(self):
        system = PtegSystem(
            dynamics=TropicalMatrix.epsilon(2),
            backward=TropicalMatrix.epsilon(2),
            within=TropicalMatrix.epsilon(2),
        )
        assert finite_weak_feasibility(system, 1)

    def test_antitone_in_horizon(self):
        system = make_railway(-13)
        values = [finite_weak_feasibility(system, k) for k in range(1, 7)]
        # once infeasible, infeasible forever
        assert values == sorted(values, reverse=True)
        assert values[2] and not values[3]


class TestDotExport:
    def test_single_arc(self):
        system = PtegSystem(
            dynamics=TropicalMatrix.epsilon(2),
            backward=TropicalMatrix.epsilon(2),
            within=TropicalMatrix([[NEG, NEG], [0, NEG]]),
        )
        assert export_dot(system, 1) == (
            "digraph precedence {\n"
            "  rankdir=LR;\n"
            '  x1_1 [label="x_1(1)"];\n'
            '  x2_1 [label="x_2(1)"];\n'
            '  x1_1 -> x2_1 [label="0"];\n'
            "}\n"
        )

    def test_deterministic(self):
        system = make_railway("-13.5")
        assert export_dot(system, 7) == export_dot(system, 7)

    def test_arcs_match_block_matrix(self):
        system = make_railway(-13)
        horizon = 7
        dot = export_dot(system, horizon)
        arcs = [line for line in dot.splitlines() if "->" in line]
        matrix = build_block_matrix(system, horizon)
        weights = [
            matrix[i, j]
            for i in range(matrix.rows)
            for j in range(matrix.cols)
            if matrix[i, j] != NEG_INF
        ]
        assert len(arcs) == len(weights)
        assert '  x4_1 -> x2_2 [label="9"];' in arcs
        assert '  x4_2 -> x4_1 [label="-13"];' in arcs

    def test_five_stage_chain_structure(self):
        dot = export_dot(two_node_system(), 5)
        assert dot.count("label=") == 10 + 3 * 4 + 1  # 10 nodes, 13 arcs
        for stage in range(1, 5):
            assert f'x1_{stage} -> x1_{stage + 1} [label="2"];' in dot
            assert f'x2_{stage + 1} -> x2_{stage} [label="-1"];' in dot
