"""The library's records against frozen-dataclass twins of themselves.

``PtegSystem``, ``ConsistencyVerdict``, ``Trajectory``, ``InvarianceReport``
and ``ProblemFile`` are plain classes on ``semiring._Record``.  Each must
compare, hash, print and take arguments like the ``@dataclass(frozen=True)``
twin in ``helpers``, refuse assignment and deletion, survive ``pickle`` and
``copy``, and keep what it derives (``forward``, ``states``,
``generators``) out of ``==``, ``hash`` and ``repr``.
"""

import copy
import inspect
import pickle
import re
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import make_railway
from helpers import RECORD_TWINS, ProblemFileTwin
from maxplus import (
    NEG_INF,
    POS_INF,
    ConsistencyKind,
    ConsistencyVerdict,
    InvarianceKind,
    InvarianceReport,
    ProblemFile,
    PtegSystem,
    Trajectory,
    TropicalMatrix,
    iterate_shrink,
    synthesize_trajectory,
)

NEG = NEG_INF
OMIT = object()  # an argument left out of the call

# Square blocks by size, and a few that fit no system.
BLOCKS = {
    1: [TropicalMatrix([[v]]) for v in (0, Fraction(1, 2), NEG)],
    2: [
        TropicalMatrix([[0, NEG], [1, 0]]),
        TropicalMatrix([[Fraction(-1, 3), 2], [NEG, NEG]]),
        TropicalMatrix.epsilon(2),
    ],
}
ODD_BLOCKS = [TropicalMatrix([[0], [1]]), TropicalMatrix([[POS_INF, 0], [0, 0]])]
SYSTEMS = [make_railway(-14), make_railway(Fraction("-13.5")), make_railway(-13)]
VALUES = [None, 0, 3, BLOCKS[1][1], BLOCKS[2][0]]
TABLES = [
    ((0,),),
    ((0, Fraction(1, 2)), (1, 1), (3, 2)),
    ((0, 0), ("1/2", 1)),
    TropicalMatrix([[0, 0], [1, Fraction(1, 2)]]),
    ((0,), (NEG,)),
    ((0, 0), (1,)),
]
GRIDS = [(), (("0",),), (("0", "x"), ("1", "-inf"))]
PARAMS = [{}, {"x": "1"}, {"x": "2"}]


def optional(values):
    return st.one_of(st.just(OMIT), st.sampled_from(values))


@st.composite
def system_args(draw):
    n = draw(st.sampled_from(sorted(BLOCKS)))
    block = st.one_of(*[st.sampled_from(BLOCKS[n])] * 3, st.sampled_from(ODD_BLOCKS))
    return [draw(block), draw(block), draw(block), draw(optional([None, *BLOCKS[n]]))]


@st.composite
def trajectory_args(draw):
    states = draw(st.sampled_from(TABLES))
    rows = states.to_rows() if isinstance(states, TropicalMatrix) else states
    wrong = tuple((99,) * len(row) for row in rows[1:])
    return [states, draw(optional([None, rows[1:], wrong]))]


ARGUMENTS = {
    PtegSystem: system_args(),
    ConsistencyVerdict: st.tuples(
        st.sampled_from(ConsistencyKind), *[optional(VALUES)] * 3
    ),
    Trajectory: trajectory_args(),
    InvarianceReport: st.tuples(
        st.sampled_from(InvarianceKind),
        st.integers(0, 2),
        st.sampled_from(SYSTEMS),
        optional([None, BLOCKS[1][0]]),
    ),
    ProblemFile: st.tuples(
        st.integers(0, 2), *[st.sampled_from(GRIDS)] * 4, optional(PARAMS)
    ),
}


@st.composite
def calls(draw, record):
    """``(args, kwargs)`` for ``record``: a positional prefix, the rest by name."""
    names = list(inspect.signature(record).parameters)
    given = [(n, v) for n, v in zip(names, draw(ARGUMENTS[record])) if v is not OMIT]
    prefix = 0
    while prefix < len(given) and given[prefix][0] == names[prefix]:
        prefix += 1
    split = draw(st.integers(0, prefix))
    return tuple(v for _, v in given[:split]), dict(given[split:])


def build(cls, call):
    """``cls(*args, **kwargs)``, or the type and text of what it raised."""
    args, kwargs = call
    try:
        return cls(*args, **kwargs)
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)


def hashed(record):
    try:
        return hash(record)
    except TypeError as exc:
        return TypeError, str(exc)


def derived(record):
    """Read (and so cache) what ``record`` derives from its fields."""
    if isinstance(record, PtegSystem):
        return record.forward
    if isinstance(record, Trajectory):
        return record.states, record.inputs
    if isinstance(record, InvarianceReport):
        return record.generators
    return None


@given(st.sampled_from(list(RECORD_TWINS)), st.data())
def test_records_behave_like_their_dataclass_twins(record, data):
    twin = RECORD_TWINS[record]
    pairs = []
    for _ in range(2):
        call = data.draw(calls(record))
        new, old = build(record, call), build(twin, call)
        if isinstance(new, tuple):  # raised
            assert new == old
            continue
        if data.draw(st.booleans()):
            derived(new)
        assert new.__match_args__ == old.__match_args__
        assert repr(new) == repr(old)
        assert hashed(new) == hashed(old)
        assert new.__eq__(old) is NotImplemented and old.__eq__(new) is NotImplemented
        assert new != old and not new == old
        pairs.append((new, old))
    if len(pairs) == 2:
        (a, old_a), (b, old_b) = pairs
        assert (a == b) == (old_a == old_b) and (a != b) == (old_a != old_b)
        if a == b:
            assert hashed(a) == hashed(b)


@pytest.mark.parametrize("record", RECORD_TWINS)
def test_records_take_their_twins_arguments(record):
    new = inspect.signature(record).parameters
    old = inspect.signature(RECORD_TWINS[record]).parameters
    assert [(p.name, p.kind) for p in new.values()] == [
        (p.name, p.kind) for p in old.values()
    ]
    for name, param in new.items():
        if (record, name) != (ProblemFile, "params"):  # the twin's is a factory
            assert param.default == old[name].default


def test_each_problem_file_gets_its_own_params():
    grid = (("0",),)
    grids = dict.fromkeys(["dynamics", "backward", "within", "extra_forward"], grid)
    for record in (ProblemFile, ProblemFileTwin):
        first, second = record(1, *grids.values()), record(size=1, **grids)
        assert first.params == second.params == {}
        assert first.params is not second.params


SAMPLED = ["PtegSystem", "ConsistencyVerdict", "Trajectory", "InvarianceReport", "ProblemFile"]


def samples():
    """One record of each class, in ``SAMPLED`` order, built by the library."""
    system = make_railway(Fraction("-14.5"))
    grid = (("0", "x"), ("1", "-inf"))
    return [
        system,
        ConsistencyVerdict(ConsistencyKind.CONSISTENT, fixed_closure=system.within),
        synthesize_trajectory(system, 4),
        iterate_shrink(system),
        ProblemFile(2, grid, grid, grid, grid, {"x": "1"}),
    ]


@pytest.mark.parametrize("index", range(5), ids=SAMPLED)
def test_records_refuse_assignment_and_deletion(index):
    new = samples()[index]
    old = RECORD_TWINS[type(new)](*[getattr(new, name) for name in new.__match_args__])
    before = repr(new)
    for record in (new, old):
        for name in (*record.__match_args__, "other"):
            with pytest.raises(AttributeError):
                setattr(record, name, 0)
            with pytest.raises(AttributeError):
                delattr(record, name)
    assert repr(new) == repr(old) == before


@pytest.mark.parametrize("read", [False, True], ids=["fresh", "derived_read"])
@pytest.mark.parametrize("index", range(5), ids=SAMPLED)
def test_records_survive_pickle_and_copy(index, read):
    record = samples()[index]
    if read:
        derived(record)
    protocols = range(0, pickle.HIGHEST_PROTOCOL + 1)
    clones = [pickle.loads(pickle.dumps(record, p)) for p in protocols]
    for clone in [*clones, copy.copy(record), copy.deepcopy(record)]:
        assert type(clone) is type(record)
        assert clone == record and repr(clone) == repr(record)
        assert hashed(clone) == hashed(record)
        assert derived(clone) == derived(record)
        with pytest.raises(AttributeError):
            clone.other = 0


def test_derived_attributes_are_not_fields():
    system, same = make_railway(-14), make_railway(-14)
    system.forward
    assert "forward" not in system.__match_args__
    assert re.search(r"\bforward=", repr(system)) is None
    for make, name in [
        (lambda: iterate_shrink(system), "generators"),
        (lambda: synthesize_trajectory(same, 5), "states"),
    ]:
        read, fresh = make(), make()
        getattr(read, name)
        assert name in vars(read) and name not in vars(fresh)
        assert name not in read.__match_args__ and f"{name}=" not in repr(read)
        assert read == fresh and hash(read) == hash(fresh) and repr(read) == repr(fresh)
