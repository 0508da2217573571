"""The value semantics of the library's records: equality, hashing, immutability,
defaults, validation and the construction hook that the bench tracer counts."""

import copy
import inspect
import pickle

import pytest

from helpers import S, fm
from regcat.braiding import Braiding, ObstructorAssignment, YbeProblem, braiding_from_table
from regcat.cli import Report
from regcat.core import FinMap, FiniteSet, ProductSet, Subset, _Record, compose, identity
from regcat.diagrams import (
    CommutativityReport,
    ObstructionReport,
    RegularThreeCycle,
    SemicommutativityReport,
)
from regcat.dsl import Workspace
from regcat.errors import DuplicateAssignment, MissingAssignment, UnknownLabel
from regcat.inverses import DEFAULT_MAX_SPACE

X, Y = S("X", 2), S("Y", 3)


def test_finmap_equality_and_hash_ignore_the_name():
    f, g = fm("f", X, Y, (0, 2)), fm("g", X, Y, (0, 2))
    assert f == g and not f != g and hash(f) == hash(g)
    assert f != fm("f", X, Y, (1, 2))
    assert f != fm("f", X, S("Z", 3), (0, 2))


def test_finite_set_equality_and_hash_go_by_id_and_elements():
    a = FiniteSet("X", ("p", "q"))
    assert a == FiniteSet("X", ("p", "q")) and hash(a) == hash(FiniteSet("X", ("p", "q")))
    assert hash(a) == hash(("X", ("p", "q")))
    assert a != FiniteSet("Y", ("p", "q"))
    assert a != FiniteSet("X", ("q", "p"))
    assert a != ("X", ("p", "q"))


def test_subset_equality_and_hash():
    assert Subset(Y, frozenset({0, 2})) == Subset(Y, frozenset({2, 0}))
    subsets = {Subset(Y, frozenset({0})), Subset(Y, frozenset({0})), Subset(X, frozenset({0}))}
    assert len(subsets) == 2


def test_walk_reports_compare_without_their_counters():
    for report, verdict in ((CommutativityReport, (True, ())),
                            (SemicommutativityReport, (False, (("absorption", None, "f"),))),
                            (ObstructionReport, (2, None))):
        counted, bare = report(*verdict, paths=5, cycles=3), report(*verdict)
        assert counted == bare and not counted != bare and hash(counted) == hash(bare)
        assert (counted.paths, counted.cycles, bare.paths, bare.cycles) == (5, 3, 0, 0)
    assert CommutativityReport(True, ()) != CommutativityReport(False, ())


@pytest.mark.parametrize("record, field", [
    (FiniteSet("X", ("a",)), "id"),
    (FiniteSet("X", ("a",)), "elements"),
    (fm("f", X, Y, (0, 1)), "name"),
    (fm("f", X, Y, (0, 1)), "table"),
    (Subset(X, frozenset({1})), "members"),
    (ProductSet.of(X, Y), "carrier"),
    (braiding_from_table("B", X, X, (0, 1, 2, 3)), "map"),
    (braiding_from_table("B", X, X, (0, 1, 2, 3)), "dom_product"),
    (YbeProblem(X), "jobs"),
])
def test_fields_are_read_only(record, field):
    with pytest.raises(AttributeError):
        setattr(record, field, getattr(record, field))


def test_ybe_problem_defaults():
    p = YbeProblem(X)
    assert (p.carrier, p.mode, p.e_spec, p.require_bijective) == (X, "regular", "identity", False)
    assert (p.jobs, p.count_only, p.max_nodes) == (1, False, DEFAULT_MAX_SPACE)


def test_keyword_construction():
    f = FinMap(name="f", dom=X, cod=Y, table=(2, 2))
    assert f == fm("f", X, Y, (2, 2)) and f.name == "f"
    swap = braiding_from_table("s", X, X, (0, 2, 1, 3))
    b = Braiding(left=X, right=X, map=swap.map)
    assert b == swap and hash(b) == hash(swap)
    assert b.dom_product == ProductSet.of(X, X)


def test_mutable_records_get_fresh_defaults():
    r1, r2 = Report("c", {}), Report("c", {})
    assert r1 == r2 and r1.witnesses == [] and r1.witnesses is not r2.witnesses
    assert r1.counts is not r2.counts
    w1, w2 = Workspace(), Workspace()
    assert w1 == w2 and w1.maps is not w2.maps
    w1.sets["X"] = X
    assert w1 != w2


@pytest.mark.parametrize("build, error", [
    (lambda: FiniteSet("X", ("a", "b", "a")), DuplicateAssignment),
    (lambda: fm("f", X, Y, (0,)), MissingAssignment),
    (lambda: fm("f", X, Y, (0, 1, 2)), MissingAssignment),
    (lambda: fm("f", X, Y, (0, 3)), UnknownLabel),
    (lambda: X.index("zz"), UnknownLabel),
])
def test_bad_input_raises(build, error):
    with pytest.raises(error):
        build()


def test_regular_three_cycle_derives_its_obstructor():
    T = S("T", 1)
    f, g, h = fm("f", T, T, (0,)), fm("g", T, T, (0,)), fm("h", T, T, (0,))
    c, again = RegularThreeCycle(T, T, T, f, g, h), RegularThreeCycle(T, T, T, f, g, h)
    assert c.obstructor == identity(T)
    assert c == again and hash(c) == hash(again)


def test_records_survive_copy_and_pickle():
    T = S("T", 1)
    t = fm("t", T, T, (0,))
    records = (X, fm("f", X, Y, (0, 2)), Subset(Y, frozenset({1})),
               braiding_from_table("B", X, X, (3, 2, 1, 0)),
               RegularThreeCycle(T, T, T, t, t, t), YbeProblem(X, jobs=2),
               ObstructorAssignment({"X": fm("e", X, X, (0, 0))}),
               Report("c", {"k": [1]}, [{"w": 2}], {"n": 3}),
               Workspace({"X": X}, {"f": fm("f", X, Y, (0, 2))}, {"D": ("f",)},
                         {"B": braiding_from_table("B", X, X, (3, 2, 1, 0))}))
    for record in records:
        for clone in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
            assert clone == record and type(clone) is type(record)
    f = pickle.loads(pickle.dumps(fm("f", X, Y, (0, 2))))
    assert f.name == "f" and f.dom == X and f.cod == Y


def test_post_init_hook_runs_once_per_finmap(monkeypatch):
    calls = []
    original = FinMap.__post_init__

    def counted(self):
        calls.append(self.name)
        return original(self)

    monkeypatch.setattr(FinMap, "__post_init__", counted)
    f = fm("f", X, Y, (0, 2))
    g = fm("g", Y, X, (1, 1, 0))
    compose(g, f)
    identity(X)
    assert calls == ["f", "g", "(g.f)", "id_X"]


@pytest.mark.parametrize("record", sorted(_Record.__subclasses__(), key=lambda c: c.__name__),
                         ids=lambda c: c.__name__)
def test_record_args_are_the_constructor_parameters(record):
    # equality, hashing, copying and repr go by _args, so none may be left out
    params = list(inspect.signature(record.__init__).parameters)[1:]
    assert list(record._args) == params
    assert record.__slots__[:len(params)] == record._args


def test_repr_spells_out_the_constructor_arguments():
    A = FiniteSet("A", ("p", "q"))
    assert repr(A) == "FiniteSet(id='A', elements=('p', 'q'))"
    assert repr(FinMap("f", A, A, (1, 0))) == (
        "FinMap(name='f', dom=FiniteSet(id='A', elements=('p', 'q')),"
        " cod=FiniteSet(id='A', elements=('p', 'q')), table=(1, 0))")
    assert repr(Subset(A, frozenset({1}))) == (
        "Subset(of=FiniteSet(id='A', elements=('p', 'q')), members=frozenset({1}))")
