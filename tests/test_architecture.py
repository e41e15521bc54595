"""Every file the package reads or writes goes through ``acoustic_lda.formats``:
no other module opens a file or touches json, orjson, csv or temp files."""

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
            "json.loads", "json.dumps", "orjson.loads", "csv.reader", "csv.writer",
            "os.open"} <= kinds


def test_the_check_sees_temp_files():
    tree = ast.parse("import tempfile\nfrom tempfile import mkstemp\n"
                     "tempfile.mkstemp()\nos.fdopen(3)\nio.open('x')\n")
    assert [what for _, what in file_access(tree)] == [
        "import tempfile", "from tempfile import", "tempfile.mkstemp",
        "os.fdopen", "io.open"]
