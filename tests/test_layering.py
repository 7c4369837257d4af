"""Layering rules of the package, read from the AST of src/mlcalib/*.py.

Imports between modules sit at module level and name only public
attributes, and files reach the disk only through core's output helpers,
with an explicit encoding.
"""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "mlcalib"

# the only functions that may write to the file system
WRITERS = {("core.py", "output_file"), ("core.py", "output_dir")}


def _nodes(tree):
    """(name of the outermost function around it or None, node) for every
    node of ``tree``."""
    def walk(node, func):
        for child in ast.iter_child_nodes(node):
            inner = func
            if func is None and isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                inner = child.name
            yield inner, child
            yield from walk(child, inner)

    return walk(tree, None)


def _is_open(node):
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "open")


def _writes(node):
    """True for os.makedirs / os.mkdir, and for an open( whose mode is not
    read-only (a mode that is not a literal counts as a write)."""
    if not isinstance(node, ast.Call):
        return False
    if isinstance(node.func, ast.Attribute) and node.func.attr in ("makedirs", "mkdir"):
        return True
    if not _is_open(node):
        return False
    mode = node.args[1] if len(node.args) > 1 else next(
        (kw.value for kw in node.keywords if kw.arg == "mode"), ast.Constant("r"))
    if not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)):
        return True
    return any(ch in mode.value for ch in "wax+")


def _parse(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


@pytest.fixture(scope="module", params=sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def module(request):
    return request.param.name, _parse(request.param)


def test_no_relative_import_inside_a_function(module):
    name, tree = module
    lazy = [f"{name}:{node.lineno} in {func}" for func, node in _nodes(tree)
            if func is not None and isinstance(node, ast.ImportFrom) and node.level > 0]
    assert lazy == []


def test_no_private_name_imported_from_a_sibling(module):
    name, tree = module
    private = [f"{name}:{node.lineno} {alias.name}" for _, node in _nodes(tree)
               if isinstance(node, ast.ImportFrom) and node.level > 0
               for alias in node.names
               if alias.name.startswith("_") and not alias.name.startswith("__")]
    assert private == []


def test_only_core_output_helpers_write(module):
    name, tree = module
    writes = [f"{name}:{node.lineno} in {func}" for func, node in _nodes(tree)
              if _writes(node) and (name, func) not in WRITERS]
    assert writes == []


def test_every_open_names_an_encoding(module):
    name, tree = module
    bare = [f"{name}:{node.lineno}" for _, node in _nodes(tree)
            if _is_open(node) and not any(kw.arg == "encoding" for kw in node.keywords)]
    assert bare == []


def test_each_output_helper_writes_once():
    # keeps the write rule from passing on a walker that finds nothing
    found = sorted(func for func, node in _nodes(_parse(SRC / "core.py")) if _writes(node))
    assert found == ["output_dir", "output_file"]


def _is_kind_test(node):
    """True for isinstance(x, bool), bool alone or in a tuple, and for
    type(x) compared with is, is not, in or not in: the tests of a JSON
    value's kind."""
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        if node.func.id == "isinstance" and len(node.args) == 2:
            types = node.args[1]
            types = types.elts if isinstance(types, ast.Tuple) else [types]
            return any(isinstance(t, ast.Name) and t.id == "bool" for t in types)
        return False
    if not isinstance(node, ast.Compare):
        return False
    typed = any(isinstance(side, ast.Call) and isinstance(side.func, ast.Name)
                and side.func.id == "type" for side in [node.left, *node.comparators])
    return typed and any(isinstance(op, (ast.Is, ast.IsNot, ast.In, ast.NotIn))
                         for op in node.ops)


def test_json_kinds_are_tested_only_in_core(module):
    """core._KINDS is the one table of JSON kinds; no other module grows its own."""
    name, tree = module
    tests = [f"{name}:{node.lineno}" for _, node in _nodes(tree) if _is_kind_test(node)]
    assert name == "core.py" or tests == []


def test_core_holds_the_kind_tests():
    # keeps the kinds rule from passing on a walker that finds nothing
    assert any(_is_kind_test(node) for _, node in _nodes(_parse(SRC / "core.py")))


# the modules that know a JSON document's fields; the others work on what
# these return
JSON_READERS = ("core.py", "report.py", "scaling.py")


def _uses_json_field(node):
    """True for an import of json_field and for a call of it."""
    if isinstance(node, ast.ImportFrom):
        return any(alias.name == "json_field" for alias in node.names)
    func = node.func if isinstance(node, ast.Call) else None
    return ((isinstance(func, ast.Name) and func.id == "json_field")
            or (isinstance(func, ast.Attribute) and func.attr == "json_field"))


def test_only_the_document_owners_read_json_fields(module):
    name, tree = module
    uses = [f"{name}:{node.lineno}" for _, node in _nodes(tree) if _uses_json_field(node)]
    assert name in JSON_READERS or uses == []


def test_each_document_owner_reads_json_fields():
    # keeps the reader rule from passing on a walker that finds nothing
    for name in JSON_READERS:
        assert any(_uses_json_field(node) for _, node in _nodes(_parse(SRC / name))), name
