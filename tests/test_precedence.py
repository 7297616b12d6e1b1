import random

import pytest

from maxplus import (
    NEG_INF,
    BlockMatrixSpec,
    DimensionMismatch,
    TropicalMatrix,
    build_block_matrix,
    export_dot,
    finite_weak_feasibility,
)

from conftest import make_railway
from helpers import random_matrix, top_left

NEG = "-inf"


def two_node_spec():
    return BlockMatrixSpec(
        within=TropicalMatrix([[NEG, NEG], [0, NEG]]),
        backward=TropicalMatrix([[NEG, NEG], [NEG, -1]]),
        forward=TropicalMatrix([[2, NEG], [NEG, NEG]]),
    )


class TestBlockMatrix:
    def test_single_stage_is_within_block(self):
        spec = two_node_spec()
        assert build_block_matrix(spec, 1) == spec.within

    def test_two_stages(self):
        spec = two_node_spec()
        expected = TropicalMatrix(
            [
                [NEG, NEG, NEG, NEG],
                [0, NEG, NEG, -1],
                [2, NEG, NEG, NEG],
                [NEG, NEG, 0, NEG],
            ]
        )
        assert build_block_matrix(spec, 2) == expected

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
        assert build_block_matrix(two_node_spec(), 3) == expected

    def test_leading_stages_nest(self):
        rng = random.Random(2102)
        for _ in range(20):
            n = rng.randint(1, 3)
            spec = BlockMatrixSpec(
                within=random_matrix(rng, n),
                backward=random_matrix(rng, n),
                forward=random_matrix(rng, n),
            )
            horizon = rng.randint(2, 6)
            big = build_block_matrix(spec, horizon)
            small = build_block_matrix(spec, horizon - 1)
            assert top_left(big, small.rows, small.cols) == small

    def test_block_shapes_checked(self):
        with pytest.raises(DimensionMismatch):
            BlockMatrixSpec(
                within=TropicalMatrix.epsilon(2),
                backward=TropicalMatrix.epsilon(3),
                forward=TropicalMatrix.epsilon(2),
            )

    def test_horizon_positive(self):
        with pytest.raises(ValueError):
            build_block_matrix(two_node_spec(), 0)


class TestWeakFeasibility:
    def test_two_node_feasible_at_every_probed_horizon(self):
        spec = two_node_spec()
        assert all(finite_weak_feasibility(spec, k) for k in range(1, 9))

    def test_railway_minus_13_fails_at_four_stages(self):
        spec = make_railway(-13).block_spec()
        assert not finite_weak_feasibility(spec, 4)

    def test_trivial_single_stage(self):
        spec = BlockMatrixSpec(
            within=TropicalMatrix.epsilon(2),
            backward=TropicalMatrix.epsilon(2),
            forward=TropicalMatrix.epsilon(2),
        )
        assert finite_weak_feasibility(spec, 1)

    def test_antitone_in_horizon(self):
        spec = make_railway(-13).block_spec()
        values = [finite_weak_feasibility(spec, k) for k in range(1, 7)]
        # once infeasible, infeasible forever
        assert values == sorted(values, reverse=True)
        assert values[2] and not values[3]


class TestDotExport:
    def test_single_arc(self):
        spec = BlockMatrixSpec(
            within=TropicalMatrix([[NEG, NEG], [0, NEG]]),
            backward=TropicalMatrix.epsilon(2),
            forward=TropicalMatrix.epsilon(2),
        )
        assert export_dot(spec, 1) == (
            "digraph precedence {\n"
            "  rankdir=LR;\n"
            '  x1_1 [label="x_1(1)"];\n'
            '  x2_1 [label="x_2(1)"];\n'
            '  x1_1 -> x2_1 [label="0"];\n'
            "}\n"
        )

    def test_deterministic(self):
        spec = make_railway("-13.5").block_spec()
        assert export_dot(spec, 7) == export_dot(spec, 7)

    def test_arcs_match_block_matrix(self):
        spec = make_railway(-13).block_spec()
        horizon = 7
        dot = export_dot(spec, horizon)
        arcs = [line for line in dot.splitlines() if "->" in line]
        matrix = build_block_matrix(spec, horizon)
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
        dot = export_dot(two_node_spec(), 5)
        assert dot.count("label=") == 10 + 3 * 4 + 1  # 10 nodes, 13 arcs
        for stage in range(1, 5):
            assert f'x1_{stage} -> x1_{stage + 1} [label="2"];' in dot
            assert f'x2_{stage + 1} -> x2_{stage} [label="-1"];' in dot
