"""The python -m repro.experiments command-line interface."""

import pytest

from repro.experiments.__main__ import TARGETS, main


def test_list_prints_targets(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out.split()
    assert "fig11" in out and "table2" in out
    assert set(out) == set(TARGETS)


def test_unknown_target_errors(capsys):
    assert main(["fig99"]) == 2
    assert "unknown target" in capsys.readouterr().err


def test_table_target_runs(capsys):
    assert main(["table3"]) == 0
    out = capsys.readouterr().out
    assert "float" in out and "cloud_stor" in out
    assert "[table3:" in out


def test_day_and_seed_flags(capsys):
    assert main(["fig2", "--day", "300", "--seed", "5"]) == 0
    out = capsys.readouterr().out
    assert "Fig. 2" in out


@pytest.mark.parametrize("day", ["-5", "0", "nan"])
def test_non_positive_day_is_a_usage_error(day, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["fig11", "--day", day, "--no-cache"])
    assert exc.value.code == 2
    assert "--day must be a positive number" in capsys.readouterr().err
