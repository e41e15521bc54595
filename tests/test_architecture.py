"""Rules on the package's source.

Every file the package reads or writes goes through ``acoustic_lda.formats``:
no other module opens a file or touches json, orjson, csv or temp files.

No module imports ``warnings``: a warning is not an exit code, and under
``python -W error`` it escapes ``cli.main`` as a traceback. What the CLI has to
tell goes to stderr as a line of its own.

Every public top-level function and class is reached from the pipeline: from
``cli.main`` and module-level code, through the definitions that use it. A
name that only tests call does not belong in the package; the few kept on
purpose are listed in ``KEPT``, each with its reason. The same holds for the
public methods and properties of the reached classes, matched by attribute
name: some reached definition must load an attribute of that name.

Every field of a config dataclass (a dataclass named ``*Config``) that
``cli.main`` reaches is set in ``cli.py``, as a constructor keyword or by
attribute assignment: a value the pipeline never sets is a module constant,
not a field. The few kept on purpose are listed in ``KEPT_FIELDS``.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "acoustic_lda"
FILE_MODULES = {"json", "orjson", "csv", "tempfile"}


def file_access(tree):
    """(line, what) for each call of ``open`` and each use of a file module."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                and node.func.id == "open":
            found.append((node.lineno, "open()"))
        elif isinstance(node, ast.Import):
            found += [(node.lineno, f"import {alias.name}") for alias in node.names
                      if alias.name.split(".")[0] in FILE_MODULES]
        elif isinstance(node, ast.ImportFrom) and node.module \
                and node.module.split(".")[0] in FILE_MODULES:
            found.append((node.lineno, f"from {node.module} import"))
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                and (node.value.id in FILE_MODULES or (node.value.id, node.attr) in
                     {("os", "open"), ("os", "fdopen"), ("io", "open")}):
            found.append((node.lineno, f"{node.value.id}.{node.attr}"))
    return found


@pytest.mark.parametrize("path", sorted(p.name for p in PACKAGE.glob("*.py")
                                        if p.name != "formats.py"))
def test_only_formats_touches_files(path):
    tree = ast.parse((PACKAGE / path).read_text(), filename=path)
    assert file_access(tree) == []


def test_the_check_sees_the_format_module():
    tree = ast.parse((PACKAGE / "formats.py").read_text())
    kinds = {what for _, what in file_access(tree)}
    assert {"open()", "import json", "import orjson", "import csv",
            "json.loads", "json.dumps", "orjson.loads", "csv.writer",
            "os.open"} <= kinds


def test_the_check_sees_temp_files():
    tree = ast.parse("import tempfile\nfrom tempfile import mkstemp\n"
                     "tempfile.mkstemp()\nos.fdopen(3)\nio.open('x')\n")
    assert [what for _, what in file_access(tree)] == [
        "import tempfile", "from tempfile import", "tempfile.mkstemp",
        "os.fdopen", "io.open"]


def warning_uses(tree):
    """(line, what) for each import of ``warnings`` and each use of it."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found += [(node.lineno, f"import {alias.name}") for alias in node.names
                      if alias.name == "warnings"]
        elif isinstance(node, ast.ImportFrom) and node.module == "warnings":
            found.append((node.lineno, "from warnings import"))
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                and node.value.id == "warnings":
            found.append((node.lineno, f"warnings.{node.attr}"))
    return found


@pytest.mark.parametrize("path", sorted(p.name for p in PACKAGE.glob("*.py")))
def test_no_module_warns(path):
    tree = ast.parse((PACKAGE / path).read_text(), filename=path)
    assert warning_uses(tree) == []


def test_the_check_sees_warnings():
    tree = ast.parse("import warnings\nfrom warnings import warn\n"
                     "warnings.warn('x')\nwarn('y')\n")
    assert warning_uses(tree) == [(1, "import warnings"), (2, "from warnings import"),
                                  (3, "warnings.warn")]


# public names no pipeline stage reaches, kept on purpose
KEPT = {
    ("corpus", "load_symbols"): "the reader of the symbols file quantize writes",
    ("corpus", "save_features"): "the writer of the features file train-gmm and quantize read",
}
ROOTS = {("cli", "main")}   # the console script

# config fields the CLI never sets, kept on purpose
KEPT_FIELDS = {
    ("lda", "LdaConfig", "alpha"): "acceptance test_08 trains at alpha=0.5",
}


def top_level(sources):
    """(module, node) for each top-level function and class in ``sources``."""
    return [(module, node) for module, text in sources.items()
            for node in ast.parse(text).body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))]


def reach(sources, roots):
    """The (module, name) of each top-level definition in ``sources`` (module
    name -> source text) reached from ``roots`` and from module-level code,
    and the attribute names those definitions and that code load.

    A definition uses what it loads by name (its own module's definitions
    and names imported with ``from .module import name``) and ``module.name``
    for a module imported with ``from . import module``.
    """
    defs, edges, reached = set(), {}, set(roots)
    attrs, module_attrs = {}, set()
    for module, text in sources.items():
        tree = ast.parse(text)
        modules, names = {}, {}
        local = {node.name for node in tree.body
                 if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    if node.module is None:
                        modules[alias.asname or alias.name] = alias.name
                    else:
                        names[alias.asname or alias.name] = (node.module, alias.name)

        def uses(node):
            for sub in ast.walk(node):
                if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
                    if sub.id in local:
                        yield module, sub.id
                    elif sub.id in names:
                        yield names[sub.id]
                elif isinstance(sub, ast.Attribute) and isinstance(sub.value, ast.Name) \
                        and sub.value.id in modules:
                    yield modules[sub.value.id], sub.attr

        def loaded_attrs(node):
            return {sub.attr for sub in ast.walk(node)
                    if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load)}

        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs.add((module, node.name))
                edges[module, node.name] = set(uses(node))
                attrs[module, node.name] = loaded_attrs(node)
            elif not isinstance(node, (ast.Import, ast.ImportFrom)):
                reached |= set(uses(node))
                module_attrs |= loaded_attrs(node)
    todo = list(reached)
    while todo:
        for used in edges.get(todo.pop(), ()):
            if used not in reached:
                reached.add(used)
                todo.append(used)
    reached &= defs
    return reached, module_attrs.union(*(attrs[d] for d in reached))


def unreached_public(sources, roots):
    public = {(m, node.name) for m, node in top_level(sources)
              if not node.name.startswith("_")}
    return sorted(public - reach(sources, roots)[0])


def unused_public_members(sources, roots):
    """``Class.member`` for each public method or property of a reached
    class whose name no reached definition loads as an attribute."""
    reached, loaded = reach(sources, roots)
    return sorted(f"{node.name}.{member.name}" for m, node in top_level(sources)
                  if isinstance(node, ast.ClassDef) and (m, node.name) in reached
                  for member in node.body if isinstance(member, ast.FunctionDef)
                  and not member.name.startswith("_") and member.name not in loaded)


def test_every_public_name_is_reached_from_the_pipeline():
    sources = {p.stem: p.read_text() for p in PACKAGE.glob("*.py")}
    assert set(KEPT) <= set(unreached_public(sources, ROOTS)), "a kept name is reached"
    assert unreached_public(sources, ROOTS | set(KEPT)) == []


def test_every_public_member_is_used_by_the_pipeline():
    sources = {p.stem: p.read_text() for p in PACKAGE.glob("*.py")}
    assert unused_public_members(sources, ROOTS | set(KEPT)) == []


def test_the_reach_check_follows_uses():
    sources = {
        "a": "from . import b\nfrom .b import used\n"
             "def main():\n    used()\n    b.attr()\n"
             "def dead():\n    b.only_dead()\n",
        "b": "X = None\ndef used(): pass\ndef attr(): return helper()\n"
             "def helper(): pass\ndef only_dead(): pass\n"
             "class Loaded: pass\nY = Loaded\n",
    }
    assert unreached_public(sources, {("a", "main")}) == [("a", "dead"), ("b", "only_dead")]


def test_the_member_check_follows_attribute_loads():
    sources = {
        "a": "from .b import Used\n"
             "def main():\n    Used().called()\n    return Used().prop\n"
             "def dead(x):\n    return x.by_dead\n",
        "b": "class Used:\n"
             "    def called(self): return self.helper()\n"
             "    def helper(self): pass\n"
             "    @property\n    def prop(self): return 1\n"
             "    def by_dead(self): pass\n"
             "    def never(self): pass\n"
             "    def _private(self): pass\n"
             "class Unreached:\n    def alone(self): pass\n",
    }
    assert unused_public_members(sources, {("a", "main")}) == ["Used.by_dead", "Used.never"]


def unset_config_fields(sources, roots, setter):
    """(module, class, field) for each field of a reached ``*Config``
    dataclass that module ``setter`` neither passes as a keyword to a call
    of that class nor assigns as an attribute."""
    reached, _ = reach(sources, roots)
    tree = ast.parse(sources[setter])
    keywords, assigned = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            callee = getattr(node.func, "attr", getattr(node.func, "id", None))
            keywords |= {(callee, kw.arg) for kw in node.keywords}
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
            assigned.add(node.attr)
    return sorted(
        (m, node.name, field.target.id) for m, node in top_level(sources)
        if isinstance(node, ast.ClassDef) and (m, node.name) in reached
        and node.name.endswith("Config")
        and any("dataclass" in ast.unparse(d) for d in node.decorator_list)
        for field in node.body
        if isinstance(field, ast.AnnAssign) and isinstance(field.target, ast.Name)
        and (node.name, field.target.id) not in keywords
        and field.target.id not in assigned)


def test_every_config_field_is_set_by_the_cli():
    sources = {p.stem: p.read_text() for p in PACKAGE.glob("*.py")}
    unset = unset_config_fields(sources, ROOTS, "cli")
    assert set(KEPT_FIELDS) <= set(unset), "a kept field is set by the CLI"
    assert sorted(set(unset) - set(KEPT_FIELDS)) == []


def test_the_config_check_sees_keywords_and_assignments():
    sources = {
        "a": "from . import b\n"
             "def main():\n    c = b.RunConfig(rate=1)\n    c.seed = 2\n"
             "    b.Other(size=3)\n",
        "b": "from dataclasses import dataclass\n"
             "@dataclass\nclass RunConfig:\n    rate: float = 0.1\n"
             "    seed: int = 0\n    tol: float = 1e-6\n"
             "@dataclass(frozen=True)\nclass Other:\n    size: int = 1\n"
             "    unset: int = 0\n"
             "@dataclass\nclass DeadConfig:\n    unset: int = 0\n",
    }
    assert unset_config_fields(sources, {("a", "main")}, "a") == [("b", "RunConfig", "tol")]
