"""The result classes share ``bigraph.Record``: value equality and repr, and,
except for ``SearchConfig`` and ``SearchOutcome``, immutability and a hash.
``Record`` writes each class's ``__init__`` from its annotated fields; these
tests pin the generator on records declared here, and each class's fields,
keywords, defaults, checks and JSON, and that records survive pickle and
copy."""

import copy
import inspect
import pickle
from fractions import Fraction

import pytest

from monocomp.analysis import (
    BipartitionReduction,
    GeneralComponent,
    GeneralGraph,
    MainComponentsReport,
    StabilityReport,
    Verdict,
)
from monocomp.bigraph import (
    BipartiteGraph,
    ColoringMismatch,
    Component,
    DegreeProfile,
    DoubleStar,
    DuplicateEdge,
    EdgeColoring,
    GraphError,
    IndexOutOfRange,
    Record,
    from_rows,
)
from monocomp.constructions import Certificate
from monocomp.search import SearchConfig, SearchOutcome
from monocomp.theorems import _UNBOUNDED, THEOREMS, Theorem

HOST = from_rows(2, 3, (0b011, 0b100))
COLORING = EdgeColoring(2, (from_rows(2, 3, (0b001, 0b100)), from_rows(2, 3, (0b010, 0))))
COMPONENT = Component(0, (0, 1), (1, 2))
ADDITIVE = THEOREMS["additive"]

# each class with one value per field, in constructor order
CASES = {
    BipartiteGraph: dict(m=2, n=3, rows=(0b011, 0b100), edge_count=3),
    DegreeProfile: dict(delta_xy=1, delta_yx=1, avg_xy=Fraction(3, 2), avg_yx=Fraction(1)),
    EdgeColoring: dict(r=2, classes=COLORING.classes),
    Component: dict(color=0, xs=(0, 1), ys=(1, 2)),
    DoubleStar: dict(color=1, center_x=0, center_y=2, order=5),
    Certificate: dict(delta_xy=3, delta_yx=3, largest_component=4, largest_double_star=4),
    Theorem: dict(
        name=ADDITIVE.name,
        min_r=ADDITIVE.min_r,
        max_r=ADDITIVE.max_r,
        hypothesis=ADDITIVE.hypothesis,
        target=ADDITIVE.target,
        half_half=ADDITIVE.half_half,
        detail=ADDITIVE.detail,
    ),
    SearchConfig: dict(seed=7, budget=100),
    SearchOutcome: dict(kind="Counterexample", value=3, witness=COLORING, examined=12),
    Verdict: dict(
        check="r2",
        applicable=True,
        holds=False,
        target=Fraction(7, 2),
        witness=COMPONENT,
        margin=Fraction(-1, 2),
        detail=None,
    ),
    StabilityReport: dict(
        delta=Fraction(1, 8),
        alpha=Fraction(1, 4),
        beta=Fraction(1, 4),
        exceptional_x=(0,),
        exceptional_y=(),
        k_x=1,
        k_y=0,
        defect_x=Fraction(1, 2),
        defect_y=Fraction(0),
        double_star_order=6,
        case_i=True,
        case_ii=False,
    ),
    MainComponentsReport: dict(
        components=(COMPONENT,),
        z_x=(1,),
        z_y=(),
        a=True,
        b=True,
        c=False,
        d=True,
        e=True,
        precondition_ok=True,
        hypothesis_ok=False,
        delta=Fraction(0),
        alpha=Fraction(1, 8),
        beta=Fraction(1, 8),
    ),
    GeneralGraph: dict(n=3, r=2, edges=((0, 1), (1, 2)), colors=(0, 1)),
    GeneralComponent: dict(color=1, vertices=(0, 2)),
    BipartitionReduction: dict(
        avoided_color=2, side_a=(0, 1), side_b=(0, 1, 2), host=HOST, coloring=COLORING
    ),
}
MUTABLE = {SearchConfig, SearchOutcome}
EDGES = [[0, 0, 0], [0, 1, 1], [1, 2, 0]]
COMPONENT_JSON = {"color": 0, "order": 4, "xs": [0, 1], "ys": [1, 2]}
COLORING_JSON = {"m": 2, "n": 3, "r": 2, "edges": EDGES}
# to_json_dict of each CASES record that has one; Theorem and SearchConfig have none
JSON = {
    BipartiteGraph: {"m": 2, "n": 3, "edges": [[0, 0], [0, 1], [1, 2]]},
    DegreeProfile: {"delta_xy": 1, "delta_yx": 1, "avg_xy": "3/2", "avg_yx": "1"},
    EdgeColoring: COLORING_JSON,
    Component: COMPONENT_JSON,
    DoubleStar: {"color": 1, "center_x": 0, "center_y": 2, "order": 5},
    Certificate: {
        "delta_xy": 3, "delta_yx": 3, "largest_component": 4, "largest_double_star": 4,
    },
    SearchOutcome: {
        "kind": "Counterexample", "value": 3, "examined": 12, "witness": COLORING_JSON,
    },
    Verdict: {
        "check": "r2",
        "applicable": True,
        "holds": False,
        "target": "7/2",
        "margin": "-1/2",
        "witness": COMPONENT_JSON,
    },
    StabilityReport: {
        "delta": "1/8",
        "alpha": "1/4",
        "beta": "1/4",
        "exceptional_x": [0],
        "exceptional_y": [],
        "k_x": 1,
        "k_y": 0,
        "defect_x": "1/2",
        "defect_y": "0",
        "double_star_order": 6,
        "case_i": True,
        "case_ii": False,
        "dichotomy": True,
    },
    MainComponentsReport: {
        "components": [COMPONENT_JSON],
        "z_x": [1],
        "z_y": [],
        "flags": {"a": True, "b": True, "c": False, "d": True, "e": True},
        "precondition_ok": True,
        "hypothesis_ok": False,
        "delta": "0",
        "alpha": "1/8",
        "beta": "1/8",
    },
    GeneralGraph: {"n": 3, "r": 2, "edges": [[0, 1, 0], [1, 2, 1]]},
    GeneralComponent: {"color": 1, "order": 2, "vertices": [0, 2]},
    BipartitionReduction: {
        "avoided_color": 2, "side_a": [0, 1], "side_b": [0, 1, 2], "induced": COLORING_JSON,
    },
}
IDS = [cls.__name__ for cls in CASES]


def test_every_record_is_covered():
    assert set(Record.__subclasses__()) == set(CASES)
    assert len(CASES) == 15


@pytest.mark.parametrize("cls", CASES, ids=IDS)
class TestRecord:
    def test_fields_follow_the_constructor(self, cls):
        params = list(inspect.signature(cls).parameters)
        assert list(cls._fields) == params == list(CASES[cls])

    def test_keywords_and_positions_agree(self, cls):
        kwargs = CASES[cls]
        obj = cls(**kwargs)
        assert obj == cls(*kwargs.values())
        assert all(getattr(obj, f) == v for f, v in kwargs.items())

    def test_equal_fields_equal_objects(self, cls):
        a, b = cls(**CASES[cls]), cls(**CASES[cls])
        assert a == b and not a != b
        if cls in MUTABLE:
            with pytest.raises(TypeError):
                hash(a)
        else:
            assert hash(a) == hash(b) == hash(tuple(CASES[cls].values()))

    def test_other_class_is_never_equal(self, cls):
        class Twin(cls):
            pass

        kwargs = CASES[cls]
        assert cls(**kwargs) != Twin(**kwargs)
        assert cls(**kwargs) != tuple(kwargs.values())

    def test_repr_shape(self, cls):
        kwargs = CASES[cls]
        body = ", ".join(f"{f}={v!r}" for f, v in kwargs.items())
        assert repr(cls(**kwargs)) == f"{cls.__qualname__}({body})"

    def test_assignment_and_deletion(self, cls):
        obj = cls(**CASES[cls])
        first = next(iter(CASES[cls]))
        if cls in MUTABLE:
            other = cls(**CASES[cls])
            setattr(obj, first, 0)
            assert getattr(obj, first) == 0 and obj != other
            delattr(obj, first)
            assert not hasattr(obj, first)
            return
        for name in (first, "not_a_field"):
            with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
                setattr(obj, name, 0)
            with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
                delattr(obj, name)
        assert obj == cls(**CASES[cls])

    def test_pickle_and_copy_round_trip(self, cls):
        obj = cls(**CASES[cls])
        for twin in (pickle.loads(pickle.dumps(obj)), copy.copy(obj), copy.deepcopy(obj)):
            assert type(twin) is cls and twin == obj
            if cls not in MUTABLE:
                with pytest.raises(AttributeError):
                    setattr(twin, next(iter(CASES[cls])), 0)

    def test_json_dict(self, cls):
        # Fraction fields print as "p/q" text, tuples as lists, records nested
        obj = cls(**CASES[cls])
        if cls in JSON:
            assert obj.to_json_dict() == JSON[cls]
        else:
            assert not hasattr(obj, "to_json_dict")


class TestGeneratedConstructor:
    """The ``__init__`` that ``Record`` writes, on records declared here."""

    def test_default_value(self):
        class Pair(Record):
            a: int
            b: tuple = ()

        assert Pair(1).b == () and Pair(1, (2,)) == Pair(b=(2,), a=1)
        assert "b" not in Pair.__dict__
        with pytest.raises(TypeError):
            Pair()

    def test_check_sees_the_fields_and_raises(self):
        class Interval(Record):
            lo: int
            hi: int

            def _check(self):
                if self.lo > self.hi:
                    raise ValueError(f"empty interval [{self.lo}, {self.hi}]")

        assert Interval(1, 2).hi == 2
        with pytest.raises(ValueError, match=r"empty interval \[3, 2\]"):
            Interval(3, 2)

    def test_subclass_fields_follow_the_parents(self):
        class Interval(Record):
            lo: int
            hi: int = 9

            def _check(self):
                if self.lo > self.hi:
                    raise ValueError("empty interval")

        class Tagged(Interval):
            tag: str = "t"

        params = inspect.signature(Tagged).parameters
        assert list(params) == list(Tagged._fields) == ["lo", "hi", "tag"]
        assert [p.default for p in params.values()][1:] == [9, "t"]
        assert repr(Tagged(1, tag="u")).endswith(".Tagged(lo=1, hi=9, tag='u')")
        with pytest.raises(ValueError, match="empty interval"):
            Tagged(10)

    def test_subclass_without_fields_keeps_the_constructor(self):
        class Interval(Record):
            lo: int
            hi: int

            def _check(self):
                if self.lo > self.hi:
                    raise ValueError("empty interval")

        class Named(Interval):
            def width(self):
                return self.hi - self.lo

        assert Named.__init__ is Interval.__init__
        assert Named(2, 5).width() == 3 and Named._fields == Interval._fields
        with pytest.raises(ValueError, match="empty interval"):
            Named(5, 2)

    def test_own_constructor_is_refused(self):
        with pytest.raises(TypeError, match=r"\.Point defines __init__, which Record writes"):
            class Point(Record):
                x: int

                def __init__(self, x):
                    object.__setattr__(self, "x", x)

        with pytest.raises(TypeError, match=r"\.Named defines __init__"):
            class Named(Record):
                def __init__(self):
                    pass

    def test_deleted_default_field_is_gone(self):
        class Knobs(Record, frozen=False):
            seed: int = 7

        knobs = Knobs()
        assert knobs.seed == 7
        del knobs.seed
        assert not hasattr(knobs, "seed")


def test_defaults():
    verdict = Verdict("r2", True, True, Fraction(3))
    assert (verdict.witness, verdict.margin, verdict.detail) == (None, Fraction(0), None)
    assert (SearchConfig().seed, SearchConfig().budget) == (0, _UNBOUNDED)
    assert SearchConfig(budget=5) == SearchConfig(0, 5)
    thm = Theorem("gy1", 1, None, ADDITIVE.hypothesis, ADDITIVE.target)
    assert thm.half_half is False


G12 = from_rows(1, 2, (0b10,))


@pytest.mark.parametrize(
    "build, exc, message",
    [
        (lambda: BipartiteGraph(-1, 2, (), 0), IndexOutOfRange, "negative side size (-1, 2)"),
        (lambda: BipartiteGraph(1, 2, (), 0), IndexOutOfRange, "row count does not match m"),
        (lambda: BipartiteGraph(1, 2, (0b100,), 1), IndexOutOfRange, "row 0 has a neighbor"),
        (lambda: BipartiteGraph(1, 2, (0b11,), 1), GraphError, "edge_count does not match"),
        (lambda: EdgeColoring(0, ()), ColoringMismatch, "need at least one color"),
        (lambda: EdgeColoring(2, (G12,)), ColoringMismatch, "class count does not match r"),
        (
            lambda: EdgeColoring(2, (G12, from_rows(2, 2, (0, 0)))),
            ColoringMismatch,
            "color classes disagree on (m, n)",
        ),
        (lambda: EdgeColoring(2, (G12, G12)), DuplicateEdge, "edge (0, 1) appears in two colors"),
        (lambda: GeneralGraph(0, 1, (), ()), IndexOutOfRange, "need at least one vertex"),
        (lambda: GeneralGraph(2, 0, (), ()), ColoringMismatch, "need at least one color"),
        (lambda: GeneralGraph(2, 1, ((0, 1),), ()), ColoringMismatch, "must be total"),
        (lambda: GeneralGraph(2, 1, ((1, 1),), (0,)), GraphError, "loop at vertex 1"),
        (lambda: GeneralGraph(2, 1, ((1, 0),), (0,)), IndexOutOfRange, "not normalized"),
        (
            lambda: GeneralGraph(2, 1, ((0, 1), (0, 1)), (0, 0)),
            DuplicateEdge,
            "edge (0, 1) given twice",
        ),
        (lambda: GeneralGraph(2, 1, ((0, 1),), (1,)), ColoringMismatch, "color 1 outside [0, 1)"),
        (lambda: SearchConfig(budget=0), ValueError, "budget must be >= 1"),
    ],
)
def test_constructor_checks(build, exc, message):
    with pytest.raises(exc) as info:
        build()
    assert message in str(info.value)
