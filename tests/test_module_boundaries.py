"""No module of the package reads another module's private names: a rule
that two modules share lives behind a public name in one of them."""

import ast
from pathlib import Path

import pytest

import conninsure

PACKAGE = Path(conninsure.__file__).parent
SIBLINGS = {path.stem for path in PACKAGE.glob("*.py")}


def _imported_siblings(tree: ast.Module) -> dict[str, str]:
    """The local names bound to package modules by `from . import x` or
    `from conninsure import x`, mapped to the module names."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level, node.module) in (
            (1, None), (0, "conninsure"),
        ):
            for alias in node.names:
                if alias.name in SIBLINGS:
                    names[alias.asname or alias.name] = alias.name
    return names


def private_reads(path: Path) -> list[str]:
    """'line: module._name' for each private name of a sibling read in path."""
    tree = ast.parse(path.read_text(), filename=str(path))
    siblings = _imported_siblings(tree)
    return [
        f"{node.lineno}: {siblings[node.value.id]}.{node.attr}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id in siblings
        and node.attr.startswith("_")
        and not node.attr.startswith("__")
    ]


@pytest.mark.parametrize("name", sorted(SIBLINGS))
def test_no_private_name_of_another_module(name):
    assert private_reads(PACKAGE / f"{name}.py") == []


def test_guard_sees_a_private_read(tmp_path):
    source = tmp_path / "sample.py"
    source.write_text(
        "from . import crypto as c, wire\n"
        "c._chameleon_digest(1, 2, 3)\n"
        "wire.__name__, wire.pack\n"
    )
    assert private_reads(source) == ["2: crypto._chameleon_digest"]


def signed_payload_calls(path: Path) -> list[str]:
    """'line' for each call of wire.encode_signed_payload in path, through
    the module or through a name imported from it."""
    tree = ast.parse(path.read_text(), filename=str(path))
    modules = {local for local, name in _imported_siblings(tree).items() if name == "wire"}
    names = {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and (node.level, node.module) in ((1, "wire"), (0, "conninsure.wire"))
        for alias in node.names
        if alias.name == "encode_signed_payload"
    }
    calls = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if (
            isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Name)
            and func.value.id in modules
            and func.attr == "encode_signed_payload"
        ) or (isinstance(func, ast.Name) and func.id in names):
            calls.append(str(node.lineno))
    return calls


@pytest.mark.parametrize("name", sorted(SIBLINGS - {"model"}))
def test_signed_payload_built_only_in_model(name):
    """model.signed_step is the one place that pairs a signed payload with
    its chameleon context."""
    assert signed_payload_calls(PACKAGE / f"{name}.py") == []


def test_guard_sees_a_signed_payload_call(tmp_path):
    source = tmp_path / "sample.py"
    source.write_text(
        "from . import wire as w\n"
        "from .wire import encode_signed_payload as esp\n"
        "w.encode_signed_payload('Vouchers', 1, b'', 0, b'')\n"
        "esp('Vouchers', 1, b'', 0, b'')\n"
        "w.encode_list([])\n"
    )
    assert signed_payload_calls(source) == ["3", "4"]
