"""The shared input error and field readers, the parsers built on them, and
the import layering of the package."""

import ast
import json
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st
from test_modules import _JSON_VALUES, _json_nodes

import strandalg
from strandalg.corpus import data_dir
from strandalg.diagrams import DiagramDomain, DiagramError, parse_diagram, parse_domain, serialize_diagram
from strandalg.inputs import InputError
from strandalg.modules import ModuleFormatError, load_module
from strandalg.surface import SurfaceError, parse_surface, serialize_surface


@pytest.mark.parametrize("cls", [SurfaceError, DiagramError, ModuleFormatError])
@pytest.mark.parametrize(
    "read, message, chained",
    [
        (lambda cls: cls.json("{"), "not valid JSON: ", True),
        (lambda cls: cls.field([], "a", "thing"), "thing is not an object", False),
        (lambda cls: cls.field({}, "a", "thing"), "thing lacks field 'a'", False),
        (lambda cls: cls.list_field({"a": 1}, "a", "thing"), "thing: field 'a' is not a list", False),
        (lambda cls: cls.int_field({"a": True}, "a", "thing"), "thing: field 'a' is not an integer: True", True),
        (lambda cls: cls.bool_field({"a": 0}, "a", "thing"), "thing: field 'a' is not a boolean: 0", False),
    ],
    ids=["json", "object", "missing", "list", "int", "bool"],
)
def test_readers_raise_the_class_they_are_called_on(cls, read, message, chained):
    with pytest.raises(cls) as e:
        read(cls)
    assert isinstance(e.value, InputError)
    assert e.value.code == "syntax"
    assert str(e.value).startswith(message)
    assert (e.value.__cause__ is not None) == chained


@pytest.mark.parametrize(
    "parse, cls, prefix",
    [
        (parse_surface, SurfaceError, ""),
        (load_module, ModuleFormatError, "module is "),
        (parse_diagram, DiagramError, ""),
        (parse_domain, DiagramError, ""),
    ],
    ids=["surface", "module", "diagram", "domain"],
)
def test_an_integer_past_the_digit_limit_of_int_is_a_syntax_error(parse, cls, prefix):
    """json.loads raises a plain ValueError, not a JSONDecodeError, for an
    integer of more than 4,300 digits."""
    with pytest.raises(cls) as e:
        parse('{"type": ' + "9" * 5000 + "}")
    assert e.value.code == "syntax"
    assert str(e.value).startswith(f"{prefix}not valid JSON: Exceeds the limit")
    assert type(e.value.__cause__) is ValueError


def _serialize_domain(phi: DiagramDomain) -> str:
    return json.dumps({"multiplicities": list(phi.multiplicities), "levels": phi.levels, "k": phi.k})


# (parse, serialize, document) for every bundled surface and diagram, and a domain
INPUT_FILES = [
    *[(parse_surface, serialize_surface, f) for f in sorted((data_dir() / "surfaces").glob("*.json"))],
    *[(parse_diagram, serialize_diagram, f) for f in sorted((data_dir() / "diagrams").glob("*.json"))],
    (parse_domain, _serialize_domain, '{"multiplicities": [0, 1, 2], "levels": 3, "k": 2}'),
]
INPUT_DOCUMENTS = [
    (parse, serialize, json.loads(f.read_text() if isinstance(f, Path) else f)) for parse, serialize, f in INPUT_FILES
]

# the module mutation values, plus values that look like surface node tokens
_INPUT_VALUES = _JSON_VALUES | st.sampled_from(["z", "e1", "e9", "0"])


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(INPUT_DOCUMENTS), st.integers(0), st.sampled_from(["replace", "delete", "repeat"]), _INPUT_VALUES)
def test_mutated_input_files_parse_or_raise_an_input_error(document, pick, action, value):
    parse, serialize, data = document
    data = json.loads(json.dumps(data))
    nodes = list(_json_nodes(data))
    *parent_path, key = nodes[pick % len(nodes)]
    parent = data
    for step in parent_path:
        parent = parent[step]
    if action == "replace":
        parent[key] = value
    elif action == "delete":
        del parent[key]
    elif isinstance(parent, list):
        parent.insert(key, json.loads(json.dumps(parent[key])))
    try:
        parsed = parse(json.dumps(data))
    except InputError:
        return
    # serialize∘parse is the identity on every value that loads
    assert parse(serialize(parsed)) == parsed


def test_no_module_imports_a_private_name_from_a_sibling():
    package = Path(strandalg.__file__).parent
    private = [
        f"{path.name}: {node.module}.{alias.name}"
        for path in sorted(package.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("strandalg"))
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert private == []
