"""The columnar ``ExecutionTrace`` against the dict-of-``Edge`` oracle.

Each seed runs one random construction sequence through both
:class:`ExecutionTrace` and :class:`ReferenceTrace`
(``reference_trace.py``, the trace as it was before it kept integer
columns) and compares everything the trace exposes: the exception
class of every call, the edges a failing batch left added, ``edges()``
order, adjacency, ``interval``, ``state``, ``node``, ``to_json`` and
the bytes of ``to_v2``. The sequences widen intervals, merge
attributes, give per-pair label lists, hit unknown nodes partway
through a batch, clash node types, name Lineage ids outside the trace
or ids that are not strings, and query adjacency between adds.

The default runs ``SEED_COUNT`` seeds; ``--seeds N`` widens the sweep,
as for the differential SQL oracle.
"""

import json
import random

import pytest

from repro.errors import ProvenanceError
from repro.provenance import bb, lineage
from repro.provenance.combined import COMBINED_MODEL
from repro.provenance.interval import TimeInterval
from repro.provenance.trace import ExecutionTrace
from tests.provenance.reference_trace import ReferenceTrace

SEED_COUNT = 3              # CI widens the sweep with --seeds 30
STEPS = 250                 # construction calls per seed

ACTIVITY_TYPES = [bb.PROCESS, lineage.QUERY, lineage.INSERT,
                  lineage.UPDATE, lineage.DELETE]
ENTITY_TYPES = [bb.FILE, lineage.TUPLE]
LABELS = sorted(COMBINED_MODEL.edge_types)
NODE_MODELS = [None, "bb", "lin", "custom"]


def pytest_generate_tests(metafunc):
    if "trace_seed" in metafunc.fixturenames:
        count = metafunc.config.getoption("--seeds") or SEED_COUNT
        metafunc.parametrize("trace_seed", range(count),
                             ids=lambda seed: f"seed{seed}")


class CallSequence:
    """Random calls over a pool of candidate node ids, some of which
    are never added."""

    def __init__(self, rng: random.Random) -> None:
        self.rng = rng
        self.typed: dict[str, str] = {}  # node id -> the type it was added as
        # candidate id -> the type it is mostly added as
        self.types = {f"proc:{pid}": bb.PROCESS for pid in range(1, 4)}
        self.types.update({f"stmt:q{number}": rng.choice(ACTIVITY_TYPES[1:])
                           for number in range(6)})
        self.types.update({f"file:/f{number}": bb.FILE
                           for number in range(3)})
        self.types.update({f"tuple:t:{rowid}:v{version}": lineage.TUPLE
                           for rowid in range(1, 13) for version in (1, 2)})
        # tuple ids that never pack (see to_v2)
        self.types.update({"tuple:t:9:9": lineage.TUPLE,
                           "tuple:u:x:v1": lineage.TUPLE})
        self.candidates = sorted(self.types)

    def node_id(self, kinds: list[str] | None = None) -> str:
        """A candidate id, mostly one of a type in ``kinds``."""
        rng = self.rng
        fitting = [node_id for node_id in self.candidates
                   if kinds is not None and self.types[node_id] in kinds]
        if fitting and rng.random() < 0.9:
            return rng.choice(fitting)
        if self.typed and rng.random() < 0.7:
            return rng.choice(sorted(self.typed))
        return rng.choice(self.candidates)

    def type_for(self, node_id: str, kinds: list[str]) -> str:
        """Mostly the type ``node_id`` stands for, sometimes another
        (a type clash)."""
        if self.types[node_id] in kinds and self.rng.random() < 0.9:
            return self.types[node_id]
        return self.rng.choice(kinds)

    def node_attrs(self, node_id: str) -> dict:
        rng = self.rng
        if node_id.startswith("tuple:") and rng.random() < 0.7:
            _, table, rowid, version = node_id.split(":")
            attrs = {"table": table, "rowid": rowid, "version": version}
            if rowid.isdigit() and version.startswith("v"):
                attrs = {"table": table, "rowid": int(rowid),
                         "version": int(version[1:])}
            if rng.random() < 0.2:
                attrs["note"] = "x"
            return attrs
        return rng.choice([{}, {"pid": rng.randint(1, 9)},
                           {"name": rng.choice(["a", "b"]), "path": "/f"}])

    def edge_attrs(self) -> dict | None:
        rng = self.rng
        choice = rng.random()
        if choice < 0.35:
            return None
        if choice < 0.75:
            ids = [self.node_id() for _ in range(rng.randint(0, 3))]
            if rng.random() < 0.2:
                ids.append("tuple:gone:1:v1")  # not in the trace
            if rng.random() < 0.1:
                ids.append(rng.choice([7, None]))  # not a string
            return {"lineage": ids}
        if choice < 0.9:
            return {"weight": rng.randint(0, 3)}
        return {"lineage": [self.node_id()], "note": "both"}

    def pair_for(self, label: str) -> tuple[str, str]:
        """Mostly admissible endpoints for ``label``, sometimes any two
        candidates (a model violation or an unknown node)."""
        rng = self.rng
        edge_type = COMBINED_MODEL.edge_types[label]
        if rng.random() < 0.04:
            return self.node_id(), self.node_id()
        ends = []
        for wanted in (edge_type.source_type, edge_type.target_type):
            fitting = sorted(node_id for node_id, type_label
                             in self.typed.items() if type_label == wanted)
            ends.append(rng.choice(fitting) if fitting
                        else self.node_id([wanted]))
        return ends[0], ends[1]

    def interval(self) -> TimeInterval:
        begin = self.rng.randint(-3, 40)
        return TimeInterval(begin, begin + self.rng.choice([0, 0, 1, 5]))

    def call(self) -> tuple[str, tuple, dict]:
        """One construction call: ``(method, args, kwargs)``."""
        rng = self.rng
        choice = rng.random()
        if choice < 0.12:
            node_id = self.node_id(ACTIVITY_TYPES)
            return ("add_activity",
                    (node_id, self.type_for(node_id, ACTIVITY_TYPES),
                     rng.choice(NODE_MODELS)),
                    self.node_attrs(node_id))
        if choice < 0.3:
            type_label = rng.choice(ENTITY_TYPES)
            if rng.random() < 0.05:
                type_label = lineage.QUERY  # not an entity type
            nodes = [(node_id, tuple(sorted(
                self.node_attrs(node_id).items())))
                for node_id in (self.node_id([type_label])
                                for _ in range(rng.randint(0, 4)))]
            return ("add_entities",
                    (type_label, rng.choice(NODE_MODELS), nodes), {})
        if choice < 0.38:
            label = rng.choice(LABELS)
            source, target = self.pair_for(label)
            return ("add_edge", (source, target, label, self.interval()),
                    self.edge_attrs() or {})
        size = rng.randint(0, 8)
        if rng.random() < 0.5:
            label = rng.choice(LABELS)
            labels = [label] * size
        else:
            label = labels = [rng.choice(LABELS) for _ in range(size)]
        pairs = [self.pair_for(edge_label) for edge_label in labels]
        if pairs and rng.random() < 0.3:
            pairs.append(pairs[rng.randrange(len(pairs))])  # a duplicate
            if isinstance(label, list):
                label = labels = labels + [labels[pairs.index(pairs[-1])]]
        attrs = None
        if rng.random() < 0.6:
            attrs = [self.edge_attrs() for _ in pairs]
        if rng.random() < 0.04:
            attrs = [None] * (len(pairs) + 1)  # wrong length
        if isinstance(label, list) and rng.random() < 0.04:
            label = label + [LABELS[0]]  # wrong length
        return "add_edges", (label, self.interval(), pairs, attrs), {}

    def note(self, method: str, args: tuple) -> None:
        """Record the nodes a successful call added."""
        if method == "add_activity":
            self.typed.setdefault(args[0], args[1])
        elif method == "add_entities":
            for node_id, _ in args[2]:
                self.typed.setdefault(node_id, args[0])


def outcome(trace, method, args, kwargs):
    try:
        getattr(trace, method)(*args, **kwargs)
    except ProvenanceError as error:
        return type(error)
    return None


def query(call):
    """``call()``'s value, or the class of the error it raised."""
    try:
        return call()
    except ProvenanceError as error:
        return type(error)


def edge_view(edge):
    return (edge.source, edge.target, edge.label, edge.interval, edge.attrs)


def edges(trace):
    return [edge_view(edge) for edge in trace.edges()]


def adjacency(trace, node_ids):
    return {node_id: (query(lambda: [edge_view(edge) for edge in
                                     trace.out_edges(node_id)]),
                      query(lambda: [edge_view(edge) for edge in
                                     trace.in_edges(node_id)]))
            for node_id in node_ids}


def v2_bytes(trace):
    return json.dumps(trace.to_v2(), separators=(",", ":")).encode()


def assert_same_graph(columnar, reference, candidates):
    assert columnar.node_count == reference.node_count
    assert columnar.edge_count == reference.edge_count
    assert edges(columnar) == edges(reference)
    for label in LABELS + ["noSuchLabel"]:
        assert ([edge_view(edge) for edge in columnar.edges(label)]
                == [edge_view(edge) for edge in reference.edges(label)])
    assert adjacency(columnar, candidates) == adjacency(reference,
                                                        candidates)
    for node_id in candidates:
        assert query(lambda: columnar.node(node_id)) == query(
            lambda: reference.node(node_id))
        assert columnar.has_node(node_id) == reference.has_node(node_id)
        for at_time in (-5, 0, 10, 50):
            assert query(lambda: columnar.state(node_id, at_time)) == query(
                lambda: reference.state(node_id, at_time))
    for kind in (None, "activity", "entity"):
        for type_label in [None] + ACTIVITY_TYPES + ENTITY_TYPES:
            assert (columnar.nodes(kind, type_label)
                    == reference.nodes(kind, type_label))
    for edge in reference.edges():
        for label in (None, edge.label, "noSuchLabel"):
            assert query(lambda: columnar.interval(
                edge.source, edge.target, label)) == query(
                lambda: reference.interval(edge.source, edge.target, label))
        assert query(lambda: columnar.interval(edge.target, edge.source)) \
            == query(lambda: reference.interval(edge.target, edge.source))
    assert columnar.to_json() == reference.to_json()
    assert v2_bytes(columnar) == v2_bytes(reference)


@pytest.mark.differential
def test_trace_matches_reference(trace_seed):
    rng = random.Random(trace_seed)
    sequence = CallSequence(rng)
    columnar = ExecutionTrace(COMBINED_MODEL)
    reference = ReferenceTrace(COMBINED_MODEL)
    candidates = sequence.candidates + ["tuple:gone:1:v1"]
    for step in range(STEPS):
        method, args, kwargs = sequence.call()
        expected = outcome(reference, method, args, kwargs)
        context = f"seed {trace_seed} step {step}: {method}{args!r}"
        assert outcome(columnar, method, args, kwargs) is expected, context
        if expected is None:
            sequence.note(method, args)
        # the edges a failing batch left added, in order
        assert edges(columnar) == edges(reference), context
        if rng.random() < 0.2:
            # build adjacency, so the next add must drop it
            node_id = sequence.node_id()
            assert adjacency(columnar, [node_id]) == adjacency(
                reference, [node_id]), context
        if step % 50 == 49:
            assert_same_graph(columnar, reference, candidates)
    assert_same_graph(columnar, reference, candidates)
