"""The CLI's built-in schema validator against jsonschema, the reference."""

import copy
import json

import pytest

from commexp import cli, families
from commexp.errors import SchemaError

jsonschema = pytest.importorskip("jsonschema")

# one command of each kind the CLI workload runs
COMMANDS = [
    ("verify", "--builtin", "intro", "--t", "1..6"),
    ("verify", "--builtin", "real2d", "--lambda", "2", "--mu", "1", "--nu", "5", "--swap"),
    ("verify", "--builtin", "real2d"),
    ("verify", "--builtin", "theorem2", "--u-branch", "-2", "--swap", "--t-complex", "0.5,0.25"),
    ("verify", "--builtin", "dim2case1", "--lambda", "2", "--mu", "-3", "--swap",
     "--triangularizable"),
    ("families", "intro"),
    ("families", "real2d", "--lambda", "2", "--mu", "1", "--nu", "5"),
    ("families", "real2d"),
    ("families", "theorem2", "--u-branch", "3"),
    ("families", "dim2case1", "--lambda", "-1", "--mu", "3"),
    ("families", "iii2"),
    ("families", "iii2", "--form", "a1", "--m", "1", "2", "0", "--l1", "6"),
    ("families", "iii2", "--form", "a2", "--m", "1", "2", "0", "--l1", "6"),
    ("families", "iii2", "--form", "a3"),
    ("families", "iii2", "--form", "a4"),
    ("families", "iii2ii", "--m", "1"),
    ("families", "iii2ii"),
    ("solve-u", "--k", "-2..3"),
    ("search", "a1-discriminant", "--m", "1", "2", "--n", "3", "4", "--nmax", "200"),
    ("search", "iii2ii-discriminant", "--m", "3", "--products", "5/2", "7/3", "1/4",
     "--nmax", "200"),
    ("search", "iii4", "--box", "3", "--n", "2"),
]


def ours_accepts(doc, name):
    try:
        cli.validate(doc, cli._schema(name))
    except SchemaError:
        return False
    return True


def reference_accepts(doc, name):
    return jsonschema.Draft202012Validator(cli._schema(name)).is_valid(doc)


@pytest.mark.parametrize("argv", COMMANDS, ids=" ".join)
def test_every_report_kind_is_accepted_by_both(capsys, argv):
    assert cli.main(list(argv)) == 0
    report = json.loads(capsys.readouterr().out)
    assert ours_accepts(report, "report.schema.json")
    assert reference_accepts(report, "report.schema.json")


def matrix():
    return cli.matrix_to_obj(families.intro_pair()[1])


def report():
    return {
        "schema_version": 1,
        "command": ["verify", "--builtin", "intro"],
        "inputs": {"builtin": "intro"},
        "tolerances": {"tol": 1e-9},
        "payload": {"pair": "intro"},
        "claim": {"name": "intro", "reproduced": True, "detail": "ok"},
        "wall_clock_seconds": 0.25,
    }


def setting(path, value):
    def mutate(doc):
        *head, last = path
        for key in head:
            doc = doc[key]
        doc[last] = value
    return mutate


def deleting(path):
    def mutate(doc):
        *head, last = path
        for key in head:
            doc = doc[key]
        del doc[last]
    return mutate


MUTATIONS = {
    "matrix.schema.json": (matrix, [
        ("unchanged", lambda doc: None, True),
        ("missing dim", deleting(["dim"]), False),
        ("missing entries", deleting(["entries"]), False),
        ("extra key", setting(["note"], "x"), False),
        ("version 2", setting(["schema_version"], 2), False),
        ("version true", setting(["schema_version"], True), False),
        ("version 1.0", setting(["schema_version"], 1.0), True),
        ("dim 0", setting(["dim"], 0), False),
        ("dim 4", setting(["dim"], 4), False),
        ("dim 2.0", setting(["dim"], 2.0), True),
        ("dim 2.5", setting(["dim"], 2.5), False),
        ("dim true", setting(["dim"], True), False),
        ("dim string", setting(["dim"], "2"), False),
        ("scale two", setting(["scale"], "two"), False),
        ("entries object", setting(["entries"], {}), False),
        ("row not array", setting(["entries", 0], "row"), False),
        ("bool real part", setting(["entries", 0, 0], [True, 0.0]), False),
        ("int parts", setting(["entries", 0, 0], [1, 0]), True),
        ("string part", setting(["entries", 0, 0], ["1", 0.0]), False),
        ("null part", setting(["entries", 0, 0], [None, 0.0]), False),
        ("pair of 1", setting(["entries", 0, 0], [1.0]), False),
        ("pair of 3", setting(["entries", 0, 0], [1.0, 0.0, 0.0]), False),
        ("pair empty", setting(["entries", 0, 0], []), False),
    ]),
    "report.schema.json": (report, [
        ("unchanged", lambda doc: None, True),
        ("missing payload", deleting(["payload"]), False),
        ("missing command", deleting(["command"]), False),
        ("missing claim", deleting(["claim"]), True),
        ("extra key", setting(["note"], "x"), True),
        ("version 2", setting(["schema_version"], 2), False),
        ("version true", setting(["schema_version"], True), False),
        ("version 1.0", setting(["schema_version"], 1.0), True),
        ("command item int", setting(["command", 0], 1), False),
        ("command string", setting(["command"], "verify"), False),
        ("inputs list", setting(["inputs"], []), False),
        ("payload null", setting(["payload"], None), False),
        ("clock bool", setting(["wall_clock_seconds"], True), False),
        ("clock string", setting(["wall_clock_seconds"], "0.25"), False),
        ("clock int", setting(["wall_clock_seconds"], 1), True),
        ("claim null", setting(["claim"], None), True),
        ("claim list", setting(["claim"], []), False),
        ("claim without reproduced", deleting(["claim", "reproduced"]), False),
        ("claim without name", deleting(["claim", "name"]), False),
        ("claim without detail", deleting(["claim", "detail"]), True),
        ("reproduced 1", setting(["claim", "reproduced"], 1), False),
        ("reproduced string", setting(["claim", "reproduced"], "true"), False),
        ("claim extra key", setting(["claim", "extra"], 1), True),
    ]),
}

CASES = [(name, build, label, mutate, valid)
         for name, (build, mutations) in MUTATIONS.items()
         for label, mutate, valid in mutations]


@pytest.mark.parametrize("name, build, label, mutate, valid", CASES,
                         ids=[f"{c[0].split('.')[0]}: {c[2]}" for c in CASES])
def test_mutations_agree_with_reference(name, build, label, mutate, valid):
    doc = build()
    mutate(doc)
    assert reference_accepts(copy.deepcopy(doc), name) is valid
    assert ours_accepts(doc, name) is valid


def test_error_names_the_json_path():
    doc = matrix()
    doc["entries"][1][0] = [0.0, False]
    path = r"\$\.entries\[1\]\[0\]\[1\]"
    with pytest.raises(SchemaError, match=rf"^{path}: False is not of type number$"):
        cli.validate(doc, cli._schema("matrix.schema.json"))


def test_const_and_enum_use_json_equality():
    cli.validate([1, {"a": 2.0}], {"const": [1.0, {"a": 2}]})
    with pytest.raises(SchemaError):
        cli.validate([True], {"const": [1]})
    with pytest.raises(SchemaError):
        cli.validate(0, {"enum": [False, "0"]})


@pytest.mark.parametrize("schema", [
    {"type": "object", "patternProperties": {}},
    {"properties": {"a": {"format": "date"}}},
    {"items": {"prefixItems": [{"multipleOf": 2}]}},
    {"type": "object", "additionalProperties": True},
    {"additionalProperties": {"type": "string"}},
    {"type": ["object", "float"]},
])
def test_unknown_schema_keyword_raises(schema):
    with pytest.raises(SchemaError, match="^schema #"):
        cli.check_schema(schema)

