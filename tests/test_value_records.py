"""The IR value records the compile path hashes are tuples.

``VirtualRegister``, ``VectorType``, ``ResourceUse``, ``OpcodeInfo`` and
``DepEdge`` key the dicts and sets of every compile layer.  They hash and
compare in C (``tuple.__hash__`` and ``tuple.__eq__``), and keep what a
frozen dataclass gave them: the hash of their field tuple (so no set or
dict order moves), their validators, read-only fields, pickling, ``str``
and ``repr``.  Being tuples, they also iterate and compare equal to plain
tuples; the last tests show no code that could tell a record from a
tuple ever sees one.
"""

import ast
import pickle
from pathlib import Path

import pytest

from repro.compiler import Strategy, compile_loop
from repro.dependence.graph import DepEdge, DepKind, Via
from repro.frontend import parse_loop
from repro.ir.types import ScalarType, VectorType
from repro.ir.values import VirtualRegister
from repro.machine import paper_machine
from repro.machine.resources import OpcodeInfo, ResourceUse
from repro.observability import recording
from repro.observability.remarks import jsonify

F64 = ScalarType.F64
SRC = Path(__file__).resolve().parent.parent / "src" / "repro"

RECORD_TYPES = (VirtualRegister, VectorType, ResourceUse, OpcodeInfo, DepEdge)

# (record, its fields by name, str, repr): one instance of each type.
RECORDS = [
    pytest.param(
        VirtualRegister("t3", VectorType(F64, 2)),
        {"name": "t3", "type": VectorType(F64, 2)},
        "%t3",
        "VirtualRegister(name='t3', type=VectorType(element=<ScalarType.F64: "
        "'f64'>, length=2))",
        id="VirtualRegister",
    ),
    pytest.param(
        VectorType(F64, 2),
        {"element": F64, "length": 2},
        "<2 x f64>",
        "VectorType(element=<ScalarType.F64: 'f64'>, length=2)",
        id="VectorType",
    ),
    pytest.param(
        ResourceUse("fp", 16),
        {"resource": "fp", "cycles": 16},
        "ResourceUse(resource='fp', cycles=16)",
        "ResourceUse(resource='fp', cycles=16)",
        id="ResourceUse",
    ),
    pytest.param(
        OpcodeInfo("fdiv", (ResourceUse("slot"), ResourceUse("fp", 16)), 16),
        {
            "mnemonic": "fdiv",
            "uses": (ResourceUse("slot", 1), ResourceUse("fp", 16)),
            "latency": 16,
        },
        "OpcodeInfo(mnemonic='fdiv', uses=(ResourceUse(resource='slot', "
        "cycles=1), ResourceUse(resource='fp', cycles=16)), latency=16)",
        "OpcodeInfo(mnemonic='fdiv', uses=(ResourceUse(resource='slot', "
        "cycles=1), ResourceUse(resource='fp', cycles=16)), latency=16)",
        id="OpcodeInfo",
    ),
    pytest.param(
        DepEdge(3, 7, DepKind.FLOW, Via.REGISTER, 1, exact=False),
        {
            "src": 3,
            "dst": 7,
            "kind": DepKind.FLOW,
            "via": Via.REGISTER,
            "distance": 1,
            "exact": False,
        },
        "3 -> 7 [flow/register, d=1*]",
        "DepEdge(src=3, dst=7, kind=<DepKind.FLOW: 'flow'>, "
        "via=<Via.REGISTER: 'register'>, distance=1, exact=False)",
        id="DepEdge",
    ),
]


@pytest.mark.parametrize("record, fields, text, rep", RECORDS)
class TestRecord:
    def test_hashes_and_compares_in_c(self, record, fields, text, rep):
        cls = type(record)
        assert cls.__hash__ is tuple.__hash__
        assert cls.__eq__ is tuple.__eq__

    def test_hash_is_the_hash_of_the_field_tuple(self, record, fields, text, rep):
        # A frozen dataclass hashes exactly this tuple, so every set and
        # dict keyed by a record iterates in the order it did.
        assert hash(record) == hash(tuple(fields.values()))

    def test_fields_read_by_name(self, record, fields, text, rep):
        for name, value in fields.items():
            assert getattr(record, name) == value

    def test_is_a_tuple_of_its_fields(self, record, fields, text, rep):
        values = tuple(fields.values())
        assert tuple(record) == values
        assert len(record) == len(values)
        assert record == values
        assert type(record)(*values) == record

    def test_fields_are_read_only(self, record, fields, text, rep):
        for name, value in fields.items():
            with pytest.raises(AttributeError):
                setattr(record, name, value)
        with pytest.raises(AttributeError):
            record.extra = 1

    def test_pickle_round_trip(self, record, fields, text, rep):
        copy = pickle.loads(pickle.dumps(record))
        assert copy == record
        assert type(copy) is type(record)

    def test_str_and_repr(self, record, fields, text, rep):
        assert str(record) == text
        assert repr(record) == rep


@pytest.mark.parametrize(
    "build",
    [
        lambda: VectorType(F64, 1),
        lambda: VectorType(element=F64, length=0),
        lambda: ResourceUse("int", 0),
        lambda: ResourceUse(resource="int", cycles=-1),
    ],
    ids=["vector-length-1", "vector-length-0-by-name", "use-0-cycles", "use-negative-by-name"],
)
def test_validators_still_raise(build):
    with pytest.raises(ValueError):
        build()


def test_resource_use_defaults_to_one_cycle():
    assert ResourceUse("int") == ResourceUse("int", 1)
    assert ResourceUse("int").cycles == 1


def test_jsonify_turns_a_tuple_into_a_list():
    assert jsonify((1, "a", (2.5, None))) == [1, "a", [2.5, None]]


def _payload_values(value):
    """Every value nested in a remark payload or span attribute."""
    yield value
    if isinstance(value, dict):
        for k, v in value.items():
            yield from _payload_values(k)
            yield from _payload_values(v)
    elif isinstance(value, (list, tuple, set, frozenset)):
        for v in value:
            yield from _payload_values(v)


QUICKSTART = (Path(__file__).resolve().parent.parent / "examples" / "quickstart.loop").read_text()


@pytest.mark.parametrize("strategy", list(Strategy), ids=lambda s: s.value)
def test_no_payload_carries_a_record(strategy):
    """``jsonify`` would write a record as a list where a dataclass was a
    ``repr``: no remark payload or span attribute holds one."""
    loop = parse_loop(QUICKSTART)
    with recording() as rec:
        compile_loop(loop, paper_machine(), strategy)
    remarks = rec.remarks.records
    spans = [s for root in rec.tracer.roots for s in root.walk()]
    assert remarks and spans
    carried = [
        v
        for payload in [r.data for r in remarks] + [s.attrs for s in spans]
        for v in _payload_values(payload)
        if isinstance(v, RECORD_TYPES)
    ]
    assert carried == []


def test_tuple_checks_in_src_are_the_known_three():
    """Only three places in ``src/`` ask whether a value is a tuple, and
    none of them is handed a record: the interpreter's vector values, the
    oracle's ``("carried", name)`` transfer keys, and ``jsonify``."""
    sites = set()
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "isinstance"
                and len(node.args) == 2
                and any(
                    isinstance(n, ast.Name) and n.id == "tuple"
                    for n in ast.walk(node.args[1])
                )
            ):
                sites.add(path.relative_to(SRC).as_posix())
    assert sites == {
        "interp/interpreter.py",
        "oracle/exact_partition.py",
        "observability/remarks.py",
    }
