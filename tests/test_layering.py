"""Layering rules of the package, read from the AST of src/mlcalib/*.py.

Every import sits at module level, imports between modules name only
public attributes, core imports no other module of the package, files
reach the disk only through the one writer of rowfiles, with an explicit
encoding, only rowfiles' parts helper starts processes, only the solver's
loss computes a binary cross-entropy, only core writes JSON text, and
core's table of cell kinds is the one place that tests a label or a
probability, through which every library entry with labels passes.
"""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "mlcalib"

# the only function that may write to the file system
WRITERS = {("rowfiles.py", "write_rows")}


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


def _imports(tree):
    """(outermost function around it or None, node) for every import and
    from-import of ``tree``, absolute or relative."""
    return [(func, node) for func, node in _nodes(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))]


def test_no_relative_import_inside_a_function(module):
    # absolute imports too: no function of the package imports anything
    name, tree = module
    lazy = [f"{name}:{node.lineno} in {func}" for func, node in _imports(tree) if func is not None]
    assert lazy == []


def test_the_import_walker_sees_module_level_imports():
    # keeps the rule above from passing on a walker that finds nothing: it
    # sees cli's standard and sibling imports at module level, and it does
    # name the function around an import inside one
    seen = {node.module if isinstance(node, ast.ImportFrom) else alias.name
            for func, node in _imports(_parse(SRC / "cli.py")) if func is None
            for alias in node.names}
    assert {"__future__", "argparse", "core", "report"} <= seen
    inner = _imports(ast.parse("def f():\n    def g():\n        from . import x\n"))
    assert [func for func, _ in inner] == ["f"]


def _package_imports(tree):
    """The modules of the package that ``tree`` imports, relatively or by
    the package's name."""
    found = set()
    for _, node in _nodes(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("mlcalib")):
            module = (node.module or "").removeprefix("mlcalib").lstrip(".")
            found |= {module} if module else {alias.name for alias in node.names}
        elif isinstance(node, ast.Import):
            found |= {alias.name for alias in node.names if alias.name.startswith("mlcalib")}
    return found


def test_core_imports_no_sibling():
    # rowfiles and the other modules build on core: an import back is a cycle
    assert _package_imports(_parse(SRC / "core.py")) == set()


def test_the_row_engine_imports_core():
    # keeps the rule above from passing on a walker that finds nothing
    assert "core" in _package_imports(_parse(SRC / "rowfiles.py"))


def test_no_private_name_imported_from_a_sibling(module):
    name, tree = module
    private = [f"{name}:{node.lineno} {alias.name}" for _, node in _nodes(tree)
               if isinstance(node, ast.ImportFrom) and node.level > 0
               for alias in node.names
               if alias.name.startswith("_") and not alias.name.startswith("__")]
    assert private == []


def test_only_the_row_writer_writes(module):
    name, tree = module
    writes = [f"{name}:{node.lineno} in {func}" for func, node in _nodes(tree)
              if _writes(node) and (name, func) not in WRITERS]
    assert writes == []


def test_every_open_names_an_encoding(module):
    name, tree = module
    bare = [f"{name}:{node.lineno}" for _, node in _nodes(tree)
            if _is_open(node) and not any(kw.arg == "encoding" for kw in node.keywords)]
    assert bare == []


def test_the_row_writer_creates_and_opens_once():
    # keeps the write rule from passing on a walker that finds nothing
    found = [func for func, node in _nodes(_parse(SRC / "rowfiles.py")) if _writes(node)]
    assert found == ["write_rows", "write_rows"]


# the one function that may fork: its children send their bytes back
# through pipes with os.write, which the write rule above leaves alone
FORKERS = {("rowfiles.py", "_in_parts")}
FORK_CALLS = {"fork", "_exit", "pipe"}


def _forks(node):
    """True for os.fork, os._exit and os.pipe, and for an import of them."""
    if isinstance(node, ast.ImportFrom):
        return node.module == "os" and any(a.name in FORK_CALLS for a in node.names)
    return (isinstance(node, ast.Attribute) and node.attr in FORK_CALLS
            and isinstance(node.value, ast.Name) and node.value.id == "os")


def test_only_the_parts_helper_forks(module):
    name, tree = module
    forks = [f"{name}:{node.lineno} in {func}" for func, node in _nodes(tree)
             if _forks(node) and (name, func) not in FORKERS]
    assert forks == []


def test_the_parts_helper_forks():
    # keeps the fork rule from passing on a walker that finds nothing
    found = {node.attr for func, node in _nodes(_parse(SRC / "rowfiles.py"))
             if _forks(node) and func == "_in_parts"}
    assert found == FORK_CALLS


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


# the one function that may compute a binary cross-entropy: every loss the
# package reports is the loss its solver minimizes
LOSSES = {("scaling.py", "_column_losses")}


def _is_logaddexp(node):
    """True for np.logaddexp, called or not, and for a bare logaddexp."""
    return ((isinstance(node, ast.Attribute) and node.attr == "logaddexp")
            or (isinstance(node, ast.Name) and node.id == "logaddexp"))


def test_only_the_solver_loss_calls_logaddexp(module):
    name, tree = module
    calls = [f"{name}:{node.lineno} in {func}" for func, node in _nodes(tree)
             if _is_logaddexp(node) and (name, func) not in LOSSES]
    assert calls == []


def test_the_solver_loss_calls_logaddexp():
    # keeps the loss rule from passing on a walker that finds nothing
    found = {func for func, node in _nodes(_parse(SRC / "scaling.py")) if _is_logaddexp(node)}
    assert found == {"_column_losses"}


def _is_dumps(node):
    """True for json.dumps, called or not, and for a bare dumps."""
    return ((isinstance(node, ast.Attribute) and node.attr == "dumps"
             and isinstance(node.value, ast.Name) and node.value.id == "json")
            or (isinstance(node, ast.Name) and node.id == "dumps"))


def _json_text(tree):
    """The lines of ``tree`` that use json.dumps outside a raise statement."""
    raised = {id(inner) for _, node in _nodes(tree) if isinstance(node, ast.Raise)
              for inner in ast.walk(node)}
    return [node.lineno for _, node in _nodes(tree) if _is_dumps(node) and id(node) not in raised]


def test_only_core_writes_json_text(module):
    # core owns the JSON layout; elsewhere json.dumps only quotes a value in an error
    name, tree = module
    assert name == "core.py" or [f"{name}:{line}" for line in _json_text(tree)] == []


def test_the_json_text_walker_sees_dumps():
    # keeps the rule above from passing on a walker that finds nothing: it
    # sees core's uses, passes scaling's, which sit in a raise, and sees
    # json.dumps passed to map inside a function
    assert _json_text(_parse(SRC / "core.py"))
    scaling = _parse(SRC / "scaling.py")
    assert any(_is_dumps(node) for _, node in _nodes(scaling)) and _json_text(scaling) == []
    assert _json_text(ast.parse("import json\ndef f(x):\n    return map(json.dumps, x)\n")) == [3]


# the modules whose public functions take labels or probabilities, each
# entry through core.check_pair
PAIR_CHECKED = ("metrics.py", "scaling.py")


def _calls(node, name):
    """True if the subtree ``node`` calls ``name``, bare or as an attribute."""
    return any(isinstance(n, ast.Call) and name in (getattr(n.func, "id", None),
                                                    getattr(n.func, "attr", None))
               for n in ast.walk(node))


def _pair_entries(tree):
    """{name: whether it calls check_pair} of each public module-level
    function of ``tree`` with a ``labels`` or ``probs`` parameter."""
    return {node.name: _calls(node, "check_pair") for node in tree.body
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
            and {a.arg for a in node.args.args + node.args.kwonlyargs} & {"labels", "probs"}}


@pytest.mark.parametrize("name", PAIR_CHECKED)
def test_every_labels_entry_calls_the_pair_check(name):
    entries = _pair_entries(_parse(SRC / name))
    assert [entry for entry, checked in entries.items() if not checked] == []


def test_the_pair_walker_sees_every_entry():
    # keeps the rule above from passing on a walker that finds nothing: it
    # sees the eight entries, and it flags one that does not check
    found = {entry for name in PAIR_CHECKED for entry in _pair_entries(_parse(SRC / name))}
    assert found == {"average_precision", "bin_class", "cmap", "per_class_scores",
                     "pooled_reliability", "fit", "bce_nll", "gradients"}
    tree = ast.parse("def f(scores, labels):\n    return g(labels)\n"
                     "def h(d, probs):\n    return core.check_pair(probs, d.labels)\n")
    assert _pair_entries(tree) == {"f": False, "h": True}


# the texts of core._CELLS, which no other module words for itself
CELL_TEXTS = ("non-finite value", "non-binary label", "probability outside [0, 1]")


def _cell_rules(tree):
    """The lines of ``tree`` that hold a cell kind's text, or the mask of a
    label or a probability: ``&`` of two comparisons of one operand, one
    with 0 and one with 1."""
    def bound(side):
        if not (isinstance(side, ast.Compare) and len(side.comparators) == 1):
            return None
        value = side.comparators[0]
        if isinstance(value, ast.Constant) and value.value in (0, 1):
            return ast.dump(side.left), value.value
        return None

    lines = []
    for _, node in _nodes(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            if any(text in node.value for text in CELL_TEXTS):
                lines.append(node.lineno)
        elif isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitAnd):
            left, right = bound(node.left), bound(node.right)
            if left and right and left[0] == right[0] and {left[1], right[1]} == {0, 1}:
                lines.append(node.lineno)
    return lines


def test_only_core_words_and_masks_cells(module):
    # a cell's rule is core._CELLS' alone; other modules pass its kind
    name, tree = module
    assert name == "core.py" or [f"{name}:{line}" for line in _cell_rules(tree)] == []


def test_the_cell_rule_walker_sees_the_table():
    # keeps the rule above from passing on a walker that finds nothing: it
    # sees core's table, the label and probability masks and a text in an
    # f-string, and passes two comparisons of different operands
    assert len(set(_cell_rules(_parse(SRC / "core.py")))) >= 3
    tree = ast.parse("bad = (y != 0.0) & (y != 1.0)\nok = (p >= 0) & (p <= 1)\n"
                     "msg = f'non-binary label {x}'\nfine = (a != 0.0) & (b < 1.0)\n")
    assert _cell_rules(tree) == [1, 2, 3]
