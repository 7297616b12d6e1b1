import math
import operator
import random
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from maxplus import (
    NEG_INF,
    POS_INF,
    DimensionMismatch,
    NotSquare,
    TropicalMatrix,
    as_scalar,
    format_scalar,
)
from maxplus import matrix
from maxplus.matrix import aligned

from helpers import (
    enumerate_path_star,
    fraction_add,
    fraction_matmul,
    fraction_rows,
    fraction_star,
    identity,
    normalized_rows,
    positive_circuit_by_powers,
    random_matrix,
    star_by_powers,
    stored_entries,
)

NEG = "-inf"

CHAIN_STEP = TropicalMatrix([[2, NEG], [NEG, NEG]])
TWO_CYCLE = TropicalMatrix([[-3, -1], [2, NEG]])  # carries a weight-1 circuit
ACYCLIC = TropicalMatrix([[NEG, NEG], [0, NEG]])


class TestConstruction:
    def test_entries_exact(self):
        m = TropicalMatrix([["0.1", 2], [NEG, "7/3"]])
        assert m[0, 0] == Fraction(1, 10)
        assert m[1, 1] == Fraction(7, 3)

    def test_ragged_rejected(self):
        with pytest.raises(ValueError):
            TropicalMatrix([[1, 2], [3]])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            TropicalMatrix([])

    @pytest.mark.parametrize("n", [0, -1])
    def test_epsilon_below_one_rejected(self, n):
        with pytest.raises(ValueError, match="at least one row and one column"):
            TropicalMatrix.epsilon(n)

    @pytest.mark.parametrize("widths", [[], [1, 2], [2, 1], [0], [0, 0]], ids=repr)
    def test_from_blocks_rejects_empty_or_ragged_grid(self, widths):
        a = TropicalMatrix([[1]])
        with pytest.raises(DimensionMismatch, match="non-empty rectangular grid"):
            TropicalMatrix.from_blocks([[a] * width for width in widths])

    @pytest.mark.parametrize(
        "shapes, message",
        [
            ([[(1, 1), (2, 1)]], "unequal heights"),
            ([[(1, 1)], [(1, 2)]], "unequal widths"),
        ],
    )
    def test_from_blocks_rejects_mismatched_blocks(self, shapes, message):
        grid = [[TropicalMatrix([[0] * c] * r) for r, c in band] for band in shapes]
        with pytest.raises(DimensionMismatch, match=message):
            TropicalMatrix.from_blocks(grid)

    def test_finite_float_rejected(self):
        with pytest.raises(TypeError):
            TropicalMatrix([[0.5]])

    def test_immutable(self):
        m = TropicalMatrix([[1]])
        with pytest.raises(AttributeError):
            m.extra = 1


class TestEntrywiseMax:
    def test_zero_matrix_neutral(self):
        eps = TropicalMatrix.epsilon(2)
        assert eps + CHAIN_STEP == CHAIN_STEP
        assert CHAIN_STEP + eps == CHAIN_STEP

    def test_idempotent(self):
        assert CHAIN_STEP + CHAIN_STEP == CHAIN_STEP

    def test_shape_checked(self):
        with pytest.raises(DimensionMismatch):
            TropicalMatrix.epsilon(2) + TropicalMatrix.epsilon(3)

    @pytest.mark.parametrize("shapes", [((2, 2), (3, 3)), ((2, 3), (3, 2))])
    def test_order_checks_shapes(self, shapes):
        """``<=`` compares entries in one flat run; 2 x 3 and 3 x 2 hold as many."""
        a, b = (TropicalMatrix([[0] * cols] * rows) for rows, cols in shapes)
        with pytest.raises(DimensionMismatch):
            a <= b


class TestProduct:
    def test_identity_neutral(self):
        assert identity(2) @ TWO_CYCLE == TWO_CYCLE

    def test_single_dot_products(self):
        out = CHAIN_STEP @ TropicalMatrix.column([0, 0])
        assert out.to_rows() == ((2,), (NEG_INF,))

    def test_zero_matrix_absorbs(self):
        eps = TropicalMatrix.epsilon(2)
        assert eps @ TWO_CYCLE == eps

    def test_shape_checked(self):
        with pytest.raises(DimensionMismatch):
            CHAIN_STEP @ TropicalMatrix.epsilon(3)


class TestStar:
    def test_star_of_zero_matrix_is_identity(self):
        assert TropicalMatrix.epsilon(2).star() == identity(2)

    def test_positive_circuit_saturates_everything(self):
        # both nodes sit on the weight-1 circuit and reach each other
        expected = TropicalMatrix([[POS_INF, POS_INF], [POS_INF, POS_INF]])
        assert TWO_CYCLE.star() == expected

    def test_acyclic_two_node(self):
        # expected value derived by enumerating all paths of length <= 2
        expected = enumerate_path_star(ACYCLIC, 2)
        assert expected == TropicalMatrix([[0, NEG], [0, 0]])
        assert ACYCLIC.star() == expected

    def test_not_square(self):
        with pytest.raises(NotSquare):
            TropicalMatrix([[NEG, NEG, NEG], [NEG, NEG, NEG]]).star()

    def test_saturation_is_selective(self):
        # node 3 feeds a positive loop on nodes 1-2 but is unreachable from it
        m = TropicalMatrix([[NEG, 1, NEG], [1, NEG, NEG], [NEG, NEG, NEG]])
        m = m + TropicalMatrix([[NEG, NEG, 0], [NEG] * 3, [NEG] * 3])
        s = m.star()
        assert s[0, 2] == POS_INF and s[1, 2] == POS_INF
        assert s[2, 2] == 0 and s[2, 0] == NEG_INF

    def test_plus_inf_inputs_propagate(self):
        m = TropicalMatrix([[NEG, POS_INF], [NEG, NEG]])
        s = m.star()
        assert s[0, 1] == POS_INF
        assert s[1, 0] == NEG_INF
        assert s[0, 0] == 0 and s[1, 1] == 0

    def test_plus_inf_passes_along_a_path(self):
        # arcs 0 -> 1 of weight +inf and 1 -> 2 of weight 0, no circuit
        m = TropicalMatrix([[NEG, NEG, NEG], [POS_INF, NEG, NEG], [NEG, 0, NEG]])
        assert m.star() == TropicalMatrix(
            [[0, NEG, NEG], [POS_INF, 0, NEG], [POS_INF, 0, 0]]
        )
        assert not positive_circuit_by_powers(m)


@st.composite
def finite_matrices(draw):
    """Square matrices free of +inf, rational entries around 0."""
    n = draw(st.integers(1, 5))
    den = draw(st.integers(1, 3))
    entry = st.one_of(
        st.just(NEG_INF),
        st.integers(-4 * den, 2 * den).map(lambda v: Fraction(v, den)),
    )
    row = st.lists(entry, min_size=n, max_size=n)
    return TropicalMatrix(draw(st.lists(row, min_size=n, max_size=n)))


class TestPositiveCircuit:
    """``m.star()`` holds +inf exactly when ``m`` has a positive circuit."""

    @given(finite_matrices())
    def test_star_diverges_iff_powers_find_a_circuit(self, m):
        assert (not m.star().rmax_valued) == positive_circuit_by_powers(m)

    def test_two_cycle(self):
        assert positive_circuit_by_powers(TWO_CYCLE)
        assert not TWO_CYCLE.star().rmax_valued

    def test_no_arcs(self):
        for n in range(1, 4):
            assert not positive_circuit_by_powers(TropicalMatrix.epsilon(n))
            assert TropicalMatrix.epsilon(n).star().rmax_valued

    def test_zero_weight_loop_benign(self):
        assert not positive_circuit_by_powers(TropicalMatrix([[0]]))
        assert TropicalMatrix([[0]]).star() == TropicalMatrix([[0]])

    def test_not_square(self):
        with pytest.raises(NotSquare):
            TropicalMatrix([[NEG, NEG]]).star()


class TestStarMatrixPredicate:
    """A star matrix S is its own star, ``S.star() == S``."""

    def test_identity(self):
        assert identity(3).star() == identity(3)

    def test_closure_of_star_is_itself(self):
        s = TropicalMatrix([[0, NEG], [0, 0]])
        assert s.star() == s

    def test_missing_diagonal_zero(self):
        assert TWO_CYCLE.star() != TWO_CYCLE


class TestImageOps:
    """The image of a star matrix S is its set of fixed points, ``S @ x == x``."""

    STAR = TropicalMatrix([[0, NEG], [0, 0]])

    def test_identity_fixes_everything(self):
        x = TropicalMatrix.column([3, Fraction(-1, 2)])
        assert identity(2) @ x == x

    def test_member(self):
        x = TropicalMatrix.column([0, 0])
        assert self.STAR @ x == x

    def test_non_member(self):
        # second component of S @ x is 0, not -1
        x = TropicalMatrix.column([0, -1])
        assert self.STAR @ x != x

    def test_vector_length_checked(self):
        with pytest.raises(DimensionMismatch):
            self.STAR @ TropicalMatrix.column([0, 0, 0])


class TestStarProperties:
    def test_powers_oracle_and_divergence(self):
        rng = random.Random(1105)
        diverging = 0
        for _ in range(150):
            m = random_matrix(rng, rng.randint(1, 4))
            star = m.star()
            circuit = positive_circuit_by_powers(m)
            assert circuit == (not star.rmax_valued)
            if not circuit:
                assert star == star_by_powers(m)
            else:
                diverging += 1
        assert 0 < diverging < 150  # corpus exercises both branches

    def test_idempotence_and_transitivity(self):
        rng = random.Random(1106)
        for _ in range(60):
            m = random_matrix(rng, rng.randint(1, 4))
            s = m.star()
            assert s.star() == s
            assert s @ s == s

    def test_monotone(self):
        rng = random.Random(1107)
        for _ in range(60):
            n = rng.randint(1, 4)
            a = random_matrix(rng, n)
            bump = random_matrix(rng, n, lo=0, hi=3, density=0.3)
            b = a + bump
            assert a <= b
            assert a.star() <= b.star()

    def test_pure_and_hashable(self):
        m = TropicalMatrix([[1, NEG], [0, -2]])
        assert m.star() == m.star()
        assert hash(m.star()) == hash(m.star())


def random_fraction_matrix(rng: random.Random, n: int) -> TropicalMatrix:
    """Fraction entries with small and large coprime-ish denominators, some infinite."""

    def entry():
        roll = rng.random()
        if roll < 0.2:
            return NEG
        if roll < 0.3:
            return POS_INF
        den = rng.choice([rng.randint(1, 6), rng.randint(1001, 2999)])
        return Fraction(rng.randint(-9 * den, 9 * den), den)

    return TropicalMatrix([[entry() for _ in range(n)] for _ in range(n)])


def stores_ints(matrix: TropicalMatrix) -> bool:
    return all(type(v) is int or v in (NEG_INF, POS_INF) for v in stored_entries(matrix))


class TestScaling:
    """A matrix stores ``int``s times one scale and reads exact values back."""

    def test_infinities_pass_through(self):
        m = TropicalMatrix([[NEG, POS_INF], ["1/2", 3]])
        assert stored_entries(m) == [NEG_INF, POS_INF, 1, 6]
        for out in (m, m @ TropicalMatrix([["1/3", NEG], [NEG, 0]])):
            assert out[0, 0] == NEG_INF and out[0, 1] == POS_INF
            assert type(out[0, 0]) is float and type(out[0, 1]) is float

    def test_scale_one_returns_the_matrix_itself(self):
        # an all-int matrix reads back its own stored grid, not a copy
        m = TropicalMatrix([[NEG, 2], [POS_INF, -7]])
        assert m.to_rows() is m._data
        assert stored_entries(m) == [NEG_INF, 2, POS_INF, -7]

    def test_scale_one_turns_integral_fractions_into_ints(self):
        half = TropicalMatrix([["1/2", NEG]])
        m = TropicalMatrix([["1/2"]]) @ half  # stored as 2 at scale 2
        assert m._scale == 2
        assert m.to_rows() == ((1, NEG_INF),)
        assert type(m[0, 0]) is int and type(next(iter(m))[0]) is int
        assert type(TropicalMatrix([[Fraction(4, 2)]])[0, 0]) is int

    def test_denominator_is_the_lcm(self):
        m = TropicalMatrix([["1/6", "3/4"], [NEG, "5/1001"]])
        assert m._scale == 12 * 1001
        assert stored_entries(m) == [2002, 9009, NEG_INF, 60]
        assert TropicalMatrix.epsilon(2)._scale == 1

    def test_roundtrip_and_int_entries(self):
        rng = random.Random(1108)
        for _ in range(200):
            m = random_fraction_matrix(rng, rng.randint(1, 4))
            assert stores_ints(m)
            back = m.to_rows()
            assert TropicalMatrix(back) == m
            # normalized: no Fraction with denominator 1 comes back
            assert all(type(as_scalar(v)) is type(v) for row in back for v in row)

    def test_equal_values_at_two_scales(self):
        half_twice = TropicalMatrix([["1/2"]]) @ TropicalMatrix([["1/2"]])
        one = TropicalMatrix([[1]])
        assert half_twice._scale != one._scale
        assert half_twice == one and one == half_twice
        assert half_twice <= one and one <= half_twice
        assert hash(half_twice) == hash(one)
        assert len({half_twice, one}) == 1
        assert str(half_twice) == str(one) and repr(half_twice) == repr(one)
        assert TropicalMatrix([["1/3"]]) != TropicalMatrix([["1/2"]])

    def test_from_blocks_aligns_a_rectangular_grid(self):
        """Bands of heights 1 and 2, stacks of widths 1, 2 and 3, scales 2, 3 and 5."""

        def entry(b, c, i, j):
            if (b + c + i + j) % 4 == 3:
                return NEG_INF
            return Fraction(30 * (i - j + b - c) + 1, (2, 3, 5)[(b + c) % 3])

        blocks = [
            [
                TropicalMatrix([[entry(b, c, i, j) for j in range(width)] for i in range(height)])
                for c, width in enumerate((1, 2, 3))
            ]
            for b, height in enumerate((1, 2))
        ]
        assert {block._scale for band in blocks for block in band} == {2, 3, 5}
        whole = TropicalMatrix.from_blocks(blocks)
        oracle = [
            [v for block in band for v in fraction_rows(block)[i]]
            for band in blocks
            for i in range(band[0].rows)
        ]
        assert whole.shape == (3, 6) and whole._scale == 30 and stores_ints(whole)
        assert whole.to_rows() == normalized_rows(oracle)


def test_text_is_the_format_of_the_read_values():
    """Text from the stored ints is the format of each read value, also
    for a matrix stored at a multiple of its own scale."""
    rng = random.Random(1406)
    for _ in range(200):
        n = rng.randint(1, 4)
        m = random_fraction_matrix(rng, n)
        other = TropicalMatrix([[Fraction(1, rng.choice([3, 7, 10**400]))]])
        for version in (m, aligned(m, other)[0]):
            expected = [[format_scalar(v) for v in row] for row in m.to_rows()]
            assert version.text_rows() == expected
            width = max(len(c) for row in expected for c in row)
            assert str(version) == "\n".join(
                " ".join(c.rjust(width) for c in row) for row in expected
            )
            assert repr(version) == "TropicalMatrix[{}]".format(
                "; ".join(" ".join(row) for row in expected)
            )


def test_text_formats_each_distinct_value_once(monkeypatch):
    formatted = []
    format_ratio = matrix.format_ratio

    def counted(num, den):
        formatted.append(Fraction(num, den))
        return format_ratio(num, den)

    monkeypatch.setattr(matrix, "format_ratio", counted)
    m = TropicalMatrix([["1/2", NEG, "1/2"], [0, "0.5", POS_INF], [NEG, 0, "7/3"]])
    assert str(m) == " 0.5 -inf  0.5\n   0  0.5 +inf\n-inf    0  7/3"
    assert sorted(formatted) == [0, Fraction(1, 2), Fraction(7, 3)]


def test_ints_beyond_float_range_next_to_plus_inf():
    # a scale of 10**400 stores 3 as 3 * 10**400, which no float can hold;
    # its sum with +inf must still be +inf, as in the Fraction oracle
    tiny = Fraction(1, 10**400)
    a = TropicalMatrix([[tiny, POS_INF], [3, NEG]])
    b = TropicalMatrix([[POS_INF, 10**400], [-(10**400), tiny]])
    for x, y in ((a, b), (b, a), (a, a), (b, b)):
        rx, ry = fraction_rows(x), fraction_rows(y)
        assert (x @ y).to_rows() == normalized_rows(fraction_matmul(rx, ry))
        assert x.star().to_rows() == normalized_rows(fraction_star(rx))


# Small denominators, and large ones that are pairwise coprime.
DENOMINATORS = st.one_of(st.integers(1, 6), st.sampled_from([1009, 2003, 2999]))


@st.composite
def fraction_matrix(draw, n):
    def entry():
        kind = draw(st.integers(0, 9))
        if kind == 0:
            return NEG_INF
        if kind == 1:
            return POS_INF
        den = draw(DENOMINATORS)
        return Fraction(draw(st.integers(-9 * den, 9 * den)), den)

    return TropicalMatrix([[entry() for _ in range(n)] for _ in range(n)])


@st.composite
def square_pairs(draw):
    n = draw(st.integers(1, 6))
    return draw(fraction_matrix(n)), draw(fraction_matrix(n))


@given(square_pairs())
def test_operations_store_ints_and_match_fraction_oracle(pair):
    a, b = pair
    ra, rb = fraction_rows(a), fraction_rows(b)
    results = {
        "+": (a + b, fraction_add(ra, rb)),
        "@": (a @ b, fraction_matmul(ra, rb)),
        "star": (a.star(), fraction_star(ra)),
        "from_blocks": (
            TropicalMatrix.from_blocks([[a, b], [b, a]]),
            [x + y for x, y in zip(ra, rb)] + [y + x for x, y in zip(ra, rb)],
        ),
    }
    for name, (result, oracle) in results.items():
        assert stores_ints(result), name
        assert result.to_rows() == normalized_rows(oracle), name
        assert result == TropicalMatrix(oracle), name
        if name != "star":
            assert result._scale == math.lcm(a._scale, b._scale), name
    leq = all(x <= y for rx, ry in zip(ra, rb) for x, y in zip(rx, ry))
    assert (a <= b) == leq
    assert a <= a + b and b <= a + b
    assert (a == b) == (ra == rb)
    assert TropicalMatrix(ra) == a and hash(TropicalMatrix(ra)) == hash(a)


def test_order_with_a_non_matrix_is_a_type_error():
    m = TropicalMatrix([[1, 2], [3, 4]])
    with pytest.raises(TypeError):
        m <= 3
    with pytest.raises(TypeError):
        3 >= m


@pytest.mark.parametrize("operation", [operator.matmul, operator.add])
def test_arithmetic_with_a_non_matrix_is_a_type_error(operation):
    with pytest.raises(TypeError, match="unsupported operand"):
        operation(TropicalMatrix([[1, 2], [3, 4]]), 3)


def typed_rows(rows) -> list:
    return [[(type(v), v) for v in row] for row in rows]


@given(st.integers(1, 6).flatmap(fraction_matrix))
@example(TropicalMatrix([[Fraction(i - j, 3) for j in range(16)] for i in range(16)]))
def test_an_entry_read_divides_back_that_entry_alone(m):
    """``m[i, j]``, negative indices too, reads ``to_rows()`` without calling it."""
    expected = typed_rows(m.to_rows())
    divided = []
    to_rows = TropicalMatrix.to_rows

    def counted(matrix):
        divided.append(matrix)
        return to_rows(matrix)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(TropicalMatrix, "to_rows", counted)
        read = [[m[i, j] for j in range(m.cols)] for i in range(m.rows)]
        back = [[m[i - m.rows, j - m.cols] for j in range(m.cols)] for i in range(m.rows)]
        for key in ((m.rows, 0), (0, m.cols), (-m.rows - 1, 0)):
            with pytest.raises(IndexError):
                m[key]
    assert divided == []
    assert typed_rows(read) == typed_rows(back) == expected


# Denominators of mixed sizes, up to one beyond float range, and offsets
# that store ints beyond float range next to +inf.
WIDE_DENOMINATORS = st.sampled_from([1, 2, 3, 1009, 10**400])


@st.composite
def wide_matrix(draw, rows, cols):
    """Some rows only -inf; entries -inf, +inf or wide rationals."""

    def entry():
        kind = draw(st.integers(0, 9))
        if kind < 2:
            return NEG_INF
        if kind == 2:
            return POS_INF
        den = draw(WIDE_DENOMINATORS)
        offset = draw(st.sampled_from([0, 0, 10**400, -(10**400)]))
        return Fraction(draw(st.integers(-9 * den, 9 * den)), den) + offset

    return TropicalMatrix(
        [NEG_INF] * cols if draw(st.integers(0, 5)) == 0 else [entry() for _ in range(cols)]
        for _ in range(rows)
    )


@st.composite
def rectangular_pairs(draw):
    """``(a, b)``: n x m and m x p, each at its own scale."""
    n, m, p = (draw(st.integers(1, 6)) for _ in range(3))
    return draw(wide_matrix(n, m)), draw(wide_matrix(m, p))


@given(rectangular_pairs())
def test_rectangular_product_matches_fraction_oracle(operands):
    """n x m by m x p at two scales: the kernel against the plain-Fraction product."""
    a, b = operands
    product = a @ b
    assert product.shape == (a.rows, b.cols) and stores_ints(product)
    oracle = fraction_matmul(fraction_rows(a), fraction_rows(b))
    assert product.to_rows() == normalized_rows(oracle)


@st.composite
def triple_products(draw):
    """``(left, middle, right, base)``: n x m, m x p, p x q and n x q, each at its own scale."""
    n, m, p, q = (draw(st.integers(1, 5)) for _ in range(4))
    shapes = ((n, m), (m, p), (p, q), (n, q))
    return tuple(draw(wide_matrix(rows, cols)) for rows, cols in shapes)


@given(triple_products())
def test_triple_product_matches_fraction_oracle(operands):
    """Both outputs, ``left @ middle`` and ``left @ middle @ right + base``.

    Operands drawn at mixed scales and aligned at the call (the kernel takes
    one scale), +inf and empty rows in every operand, and ``int``s beyond
    float range, against the plain-Fraction products.
    """
    left, middle, right, base = operands
    via, grid, scale = matrix._triple_product(*aligned(*operands))
    assert scale == math.lcm(*(m._scale for m in operands))
    first = fraction_matmul(fraction_rows(left), fraction_rows(middle))
    whole = fraction_add(fraction_matmul(first, fraction_rows(right)), fraction_rows(base))
    for rows, oracle in ((via, first), (grid, whole)):
        built = TropicalMatrix._wrap(tuple(map(tuple, rows)), scale)
        assert stores_ints(built)
        assert built.to_rows() == normalized_rows(oracle)


@st.composite
def stars_and_arcs(draw):
    """``(closed, weights)``: a star free of +inf and a mask of candidate arcs.

    The star closes weights of at most 0, so it has no positive circuit;
    the candidates reach up to 9, so closing over them can add some.
    """
    n = draw(st.integers(1, 6))

    def matrix_of(lo, hi, share):
        def entry():
            if draw(st.integers(0, 9)) < share:
                return NEG_INF
            den = draw(DENOMINATORS)
            return Fraction(draw(st.integers(lo * den, hi * den)), den)

        return TropicalMatrix([[entry() for _ in range(n)] for _ in range(n)])

    return matrix_of(-9, 0, 4).star(), matrix_of(-9, 9, draw(st.integers(3, 9)))


@given(stars_and_arcs())
def test_close_over_is_the_full_star(operands):
    """Re-closing a star over the arcs above it pivots over their tails only."""
    closed, weights = aligned(*operands)
    above = {
        (i, j): w
        for i, (row, crow) in enumerate(zip(weights._data, closed._data))
        for j, (w, c) in enumerate(zip(row, crow))
        if w > c
    }
    arcs = TropicalMatrix._wrap(
        tuple(
            tuple(above.get((i, j), NEG_INF) for j in range(closed.cols))
            for i in range(closed.rows)
        ),
        closed._scale,
    )
    result = matrix._close_over(closed, above)
    assert result == (closed + arcs).star()
    assert stores_ints(result)
    if not above:
        assert result is closed
