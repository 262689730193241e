"""The value classes built on ``graphs.Record``: each behaves as the frozen
dataclass it replaced, in equality, hashing, repr, immutability, defaults
and pickling, since set orders, output bytes and the process pool rely on
those."""

import pickle

import pytest

from trd import criticality, graphs, solver, verify
from trd import families as fam
from trd.criticality import EdgeProfile
from trd.errors import OutOfRangeError
from trd.graphs import Graph, Record
from trd.solver import SolveResult, TrdVerdict, WeightFunction
from trd.verify import (
    AllLabeled,
    Counterexample,
    Families,
    RandomGnp,
    VerificationReport,
)

# one instance of every record class, with the repr a frozen dataclass gave it
RECORDS = [
    (fam.Path(5), "Path(n=5)"),
    (fam.Cycle(5), "Cycle(n=5)"),
    (fam.Complete(4), "Complete(n=4)"),
    (fam.Star(3), "Star(k=3)"),
    (fam.SubdividedStar(3), "SubdividedStar(k=3)"),
    (fam.DoubleStar(1, 2), "DoubleStar(a=1, b=2)"),
    (fam.Corona(fam.Complete(3)), "Corona(inner=Complete(n=3))"),
    (fam.Spider((3, 1, 2)), "Spider(legs=(1, 2, 3))"),
    (fam.FamilyG(1, 2), "FamilyG(k1=1, k2=2)"),
    (fam.FamilyH(2, 3, 4), "FamilyH(a=2, b=3, r=4)"),
    (fam.Galaxy((2, 1)), "Galaxy(sizes=(1, 2))"),
    (fam.CartesianComplete(3, 4), "CartesianComplete(n=3, m=4)"),
    (fam.ProductDeleted(3), "ProductDeleted(l=3)"),
    (fam.DeadExample(2), "DeadExample(n=2)"),
    (fam.DisjointUnion((fam.Complete(2), fam.Path(3))),
     "DisjointUnion(parts=(Complete(n=2), Path(n=3)))"),
    (fam.Hen1Class("corona"), "Hen1Class(kind='corona', r=None)"),
    (Graph(3, (6, 5, 3)), "Graph(n=3, adj=(6, 5, 3))"),
    (WeightFunction((2, 0, 1)), "WeightFunction(values=(2, 0, 1))"),
    (TrdVerdict(True), "TrdVerdict(valid=True, vertex=None, condition=None)"),
    (SolveResult("gamma_tR", 3, WeightFunction((2, 1)), 7),
     "SolveResult(invariant='gamma_tR', value=3,"
     " witness=WeightFunction(values=(2, 1)), nodes_explored=7)"),
    (EdgeProfile(3, {(0, 2): 1}, "edge-critical"),
     "EdgeProfile(base_value=3, deltas={(0, 2): 1},"
     " classification='edge-critical')"),
    (AllLabeled(5), "AllLabeled(max_n=5, connected_only=False)"),
    (Families((fam.Path(3),)), "Families(specs=(Path(n=3),))"),
    (RandomGnp(3, 5, 0.5, 0), "RandomGnp(count=3, n=5, p=0.5, seed=0)"),
    (Counterexample("Bw", "why"), "Counterexample(graph6='Bw', detail='why')"),
    (VerificationReport("T_X", AllLabeled(3), 4, "pass", ()),
     "VerificationReport(theorem_id='T_X',"
     " universe=AllLabeled(max_n=3, connected_only=False),"
     " instances_checked=4, outcome='pass', counterexamples=())"),
]
IDS = [type(r).__name__ for r, _ in RECORDS]


def test_every_record_class_is_listed():
    names = {name for module in (fam, graphs, solver, criticality, verify)
             for name, obj in vars(module).items()
             if isinstance(obj, type) and issubclass(obj, Record)
             and obj is not Record}
    assert names == set(IDS)


@pytest.mark.parametrize("record, text", RECORDS, ids=IDS)
class TestRecord:
    def test_repr(self, record, text):
        assert repr(record) == text

    def test_equal_only_within_the_exact_class(self, record, text):
        cls = type(record)
        same = cls(*record._astuple())
        assert same == record and not same != record
        twin = type("Twin", (Record,), {"_fields": cls._fields})(*record._astuple())
        sub = type("Sub", (cls,), {})(*record._astuple())
        assert twin != record and record != twin
        assert sub != record and record != sub

    def test_hash_is_the_field_tuple_hash(self, record, text):
        values = record._astuple()
        if isinstance(record, EdgeProfile):  # the deltas dict is unhashable
            with pytest.raises(TypeError):
                hash(record)
            with pytest.raises(TypeError):
                hash(values)
        else:
            assert hash(record) == hash(values)

    def test_assignment_and_deletion_raise(self, record, text):
        name = type(record)._fields[0]
        before = record._astuple()
        for attr in (name, "other"):
            with pytest.raises(AttributeError):
                setattr(record, attr, 0)
            with pytest.raises(AttributeError):
                delattr(record, attr)
        assert record._astuple() == before and not hasattr(record, "other")

    def test_pickle_round_trip(self, record, text):
        copy = pickle.loads(pickle.dumps(record))
        assert type(copy) is type(record)
        assert copy == record and repr(copy) == text
        with pytest.raises(AttributeError):
            setattr(copy, type(record)._fields[0], 0)

    def test_keywords_and_asdict(self, record, text):
        cls = type(record)
        assert record._asdict() == dict(zip(cls._fields, record._astuple()))
        assert cls(**record._asdict()) == record


def test_defaults():
    assert fam.Hen1Class("corona").r is None
    assert fam.Hen1Class("family_h", 3).r == 3
    assert TrdVerdict(False).vertex is None and TrdVerdict(False).condition is None
    assert TrdVerdict(False, 2, "roman") == TrdVerdict(False, vertex=2, condition="roman")
    assert AllLabeled(5).connected_only is False
    assert AllLabeled(5, connected_only=True) == AllLabeled(5, True)


@pytest.mark.parametrize("cls, args, kwargs", [
    (fam.Path, (), {}),
    (fam.Path, (1, 2), {}),
    (fam.Path, (), {"m": 1}),
    (fam.DoubleStar, (1,), {"a": 2}),
    (fam.Hen1Class, (), {"r": 1}),
    (AllLabeled, (), {"connected_only": True}),
])
def test_wrong_arguments_raise_type_error(cls, args, kwargs):
    with pytest.raises(TypeError):
        cls(*args, **kwargs)


def test_spider_and_galaxy_sort_their_tuples():
    assert fam.Spider((4, 2, 2)).legs == (2, 2, 4)
    assert fam.Spider([3, 1]) == fam.Spider((1, 3))
    assert fam.Galaxy((3, 1, 2)).sizes == (1, 2, 3)
    assert fam.Galaxy(sizes=[2, 1]) == fam.Galaxy((1, 2))
    assert hash(fam.Spider((2, 1))) == hash(((1, 2),))
    assert fam.Spider((2, 1))._replace(legs=(5, 3)).legs == (3, 5)


def test_weight_function_range_error():
    with pytest.raises(OutOfRangeError, match="weight 3 at vertex 1"):
        WeightFunction((0, 3, 1))
    assert WeightFunction((0, 2, 1)).weight == 3


def test_replace_keeps_the_other_fields():
    report = VerificationReport("T_X", AllLabeled(3), 4, "pass", ())
    moved = report._replace(universe=AllLabeled(4))
    assert moved.universe == AllLabeled(4)
    assert moved._astuple()[2:] == report._astuple()[2:]
    assert report.universe == AllLabeled(3)
