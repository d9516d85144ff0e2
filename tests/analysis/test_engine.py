"""Engine behavior: discovery, scopes, suppression spans, SIM016, CLI."""

from __future__ import annotations

from repro.analysis.engine import (
    SCOPE_KERNEL,
    SCOPE_TEST,
    analyze_source,
    iter_python_files,
    run_engine,
)
from repro.analysis.lint import main

# -- discovery ---------------------------------------------------------------


def test_walk_prunes_skip_dirs_and_fixture_corpus(tmp_path):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "ok.py").write_text("x = 1\n", encoding="utf-8")
    (tmp_path / "pkg" / "__pycache__").mkdir()
    (tmp_path / "pkg" / "__pycache__" / "junk.py").write_text("import time\n", encoding="utf-8")
    (tmp_path / "analysis" / "fixtures").mkdir(parents=True)
    (tmp_path / "analysis" / "fixtures" / "bad.py").write_text("x = 1\n", encoding="utf-8")
    found = [p.name for p, _ in iter_python_files([tmp_path])]
    assert found == ["ok.py"]


def test_walk_demotes_tests_to_test_scope(tmp_path):
    (tmp_path / "src").mkdir()
    (tmp_path / "src" / "mod.py").write_text("x = 1\n", encoding="utf-8")
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_mod.py").write_text("x = 1\n", encoding="utf-8")
    scopes = {p.name: scope for p, scope in iter_python_files([tmp_path])}
    assert scopes == {"mod.py": SCOPE_KERNEL, "test_mod.py": SCOPE_TEST}


def test_explicit_file_argument_keeps_kernel_scope(tmp_path):
    target = tmp_path / "tests" / "helper.py"
    target.parent.mkdir()
    target.write_text("x = 1\n", encoding="utf-8")
    ((path, scope),) = list(iter_python_files([target]))
    assert path == target
    assert scope == SCOPE_KERNEL


def test_test_scope_keeps_leak_rules_drops_kernel_conventions(tmp_path):
    tests_dir = tmp_path / "tests"
    tests_dir.mkdir()
    (tests_dir / "test_leaky.py").write_text(
        "import time\n\n\ndef helper(acc=[]):\n    acc.append(time.time())\n    return acc\n",
        encoding="utf-8",
    )
    report = run_engine([tmp_path])
    ids = {v.rule_id for v in report.errors}
    assert "SIM005" in ids  # mutable default leaks across tests
    assert "SIM001" not in ids  # wall-clock reads are fine in tests


# -- suppression spans -------------------------------------------------------


def test_directive_inside_multiline_statement_suppresses(tmp_path):
    source = (
        "import numpy as np\n"
        "\n"
        "rng = np.random.default_rng(\n"
        "    1234  # simlint: ignore[SIM002]\n"
        ")\n"
    )
    analysis = analyze_source(source, "src/repro/sim/mod.py", scope=SCOPE_KERNEL)
    assert not any(v.rule_id == "SIM002" for v in analysis.violations)
    assert [d.used for d in analysis.directives] == [True]


def test_directive_on_def_line_covers_decorator_findings():
    source = (
        "import numpy as np\n"
        "\n"
        "\n"
        "def register(rng):\n"
        "    def wrap(fn):\n"
        "        return fn\n"
        "    return wrap\n"
        "\n"
        "\n"
        "@register(np.random.default_rng())\n"
        "def f() -> None:  # simlint: ignore[SIM002]\n"
        "    return None\n"
    )
    analysis = analyze_source(source, "src/repro/sim/mod.py", scope=SCOPE_KERNEL)
    assert not any(v.rule_id == "SIM002" for v in analysis.violations)


def test_directive_outside_the_statement_span_does_not_apply():
    source = "# simlint: ignore[SIM005]\n\n\ndef f(x=[]):\n    return x\n"
    analysis = analyze_source(source, "mod.py", scope=SCOPE_KERNEL)
    assert any(v.rule_id == "SIM005" for v in analysis.violations)


def test_directive_on_header_does_not_blanket_the_body():
    source = (
        "import numpy as np\n"
        "\n"
        "\n"
        "def f() -> None:  # simlint: ignore[SIM002]\n"
        "    rng = np.random.default_rng()\n"
        "    return None\n"
    )
    analysis = analyze_source(source, "src/repro/sim/mod.py", scope=SCOPE_KERNEL)
    assert any(v.rule_id == "SIM002" for v in analysis.violations)


# -- SIM016 stale-ignore audit -----------------------------------------------


def test_stale_directive_is_a_warning_by_default(tmp_path, capsys):
    """SIM016 is no longer a warning: with no options a stale directive is an error."""
    target = tmp_path / "mod.py"
    target.write_text("x = 1  # simlint: ignore[SIM005]\n", encoding="utf-8")
    report = run_engine([tmp_path])
    assert [(v.line, v.rule_id) for v in report.errors] == [(1, "SIM016")]
    assert main([str(target)]) == 1
    assert "SIM016" in capsys.readouterr().out


def test_strict_ignores_escalates_stale_directives(tmp_path):
    """Strict ignores is the only mode: a stale blanket directive is an error too."""
    target = tmp_path / "mod.py"
    target.write_text("x = 1  # simlint: ignore\n", encoding="utf-8")
    report = run_engine([tmp_path])
    assert [(v.line, v.rule_id) for v in report.errors] == [(1, "SIM016")]


def test_used_directive_is_not_stale(tmp_path):
    target = tmp_path / "mod.py"
    target.write_text("def f(x=[]):  # simlint: ignore[SIM005]\n    return x\n", encoding="utf-8")
    report = run_engine([tmp_path])
    assert report.errors == []


def test_directive_mention_in_docstring_is_not_a_directive(tmp_path):
    target = tmp_path / "mod.py"
    target.write_text(
        '"""Silence with ``# simlint: ignore[SIM005]`` on the statement."""\nx = 1\n',
        encoding="utf-8",
    )
    report = run_engine([tmp_path])
    assert report.errors == []


# -- CLI ---------------------------------------------------------------------


def _write_tree(tmp_path):
    src = tmp_path / "pkg"
    src.mkdir()
    (src / "clean.py").write_text("x = 1\n", encoding="utf-8")
    (src / "dirty.py").write_text("import time\ntime.time()\n", encoding="utf-8")
    return src


def test_cli_exit_codes_and_text_output(tmp_path, capsys):
    src = _write_tree(tmp_path)
    assert main([str(src / "clean.py")]) == 0
    assert main([str(src)]) == 1
    captured = capsys.readouterr()
    assert "SIM001" in captured.out
    assert "1 violation found" in captured.err


def test_cli_broken_file_exits_2(tmp_path, capsys):
    bad = tmp_path / "broken.py"
    bad.write_text("def (:\n", encoding="utf-8")
    assert main([str(bad)]) == 2
    assert "cannot parse" in capsys.readouterr().err
