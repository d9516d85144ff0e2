"""Module-table construction: name resolution, import collection, exports."""

from __future__ import annotations

import ast
from pathlib import Path

from repro.analysis.model import collect_imports, module_exports, module_name

FIXTURES = Path(__file__).parent / "fixtures"


def test_module_name_resolves_through_init_chain():
    path = FIXTURES / "arch" / "good" / "repro" / "sim" / "impl.py"
    assert module_name(path) == "repro.sim.impl"


def test_module_name_of_init_is_the_package():
    path = FIXTURES / "arch" / "good" / "repro" / "sim" / "__init__.py"
    assert module_name(path) == "repro.sim"


def test_module_name_outside_a_package_is_none(tmp_path):
    loose = tmp_path / "loose.py"
    loose.write_text("x = 1\n", encoding="utf-8")
    assert module_name(loose) is None


def test_collect_imports_records_toplevel_and_nested():
    source = (
        "import os\n"
        "from repro.sim import api_fn\n"
        "if True:\n"
        "    import json\n"
        "def f():\n"
        "    from repro.core import helpers\n"
    )
    tree = ast.parse(source)
    records = collect_imports(tree, "repro.cluster.nodes", False)
    by_module = {record.module: record for record in records}
    assert by_module["os"].toplevel
    assert by_module["repro.sim"].toplevel
    assert by_module["repro.sim"].names == ("api_fn",)
    # lexically module-scope even though conditionally executed
    assert by_module["json"].toplevel
    # function-level imports are recorded but not top-level
    assert not by_module["repro.core"].toplevel


def test_collect_imports_resolves_relative_levels():
    tree = ast.parse("from . import sibling\nfrom ..other import thing\n")
    records = collect_imports(tree, "repro.sim.impl", False)
    modules = {record.module for record in records}
    assert "repro.sim" in modules
    assert "repro.other" in modules


def test_collect_imports_relative_from_init():
    tree = ast.parse("from .impl import api_fn\n")
    (record,) = collect_imports(tree, "repro.sim", True)
    assert record.module == "repro.sim.impl"
    assert record.names == ("api_fn",)


def test_module_exports_reads_static_all():
    tree = ast.parse("__all__ = ['a', 'b']\n")
    assert module_exports(tree) == ("a", "b")
    assert module_exports(ast.parse("x = 1\n")) is None

