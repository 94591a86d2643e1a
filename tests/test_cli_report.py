"""CLI and report-formatting tests."""

import json
import os

import pytest

from repro.cli import main
from repro.core.pipeline import Jrpm
from repro.core.report import format_report, format_suite_summary
from repro.minijava import compile_source

from conftest import wrap_main

SOURCE = wrap_main("""
    int[] a = new int[500];
    for (int i = 0; i < 500; i++) { a[i] = i * 3 % 97; }
    int s = 0;
    for (int i = 0; i < 500; i++) { s += a[i]; }
    Sys.printInt(s);
    return s;
""")


@pytest.fixture(scope="module")
def report():
    return Jrpm().run(compile_source(SOURCE), name="cli-test")


def test_format_report_basics(report):
    text = format_report(report)
    assert "cli-test" in text
    assert "actual TLS speedup" in text
    assert "outputs match" in text


def test_format_report_verbose_lists_plans(report):
    text = format_report(report, verbose=True)
    assert "selected decompositions" in text
    assert "TEST profile" in text


def test_format_suite_summary(report):
    text = format_suite_summary({"monteCarlo": report})
    assert "integer" in text
    assert "geomean" in text
    assert "paper band" in text


def test_cli_run(tmp_path, capsys):
    path = tmp_path / "prog.mj"
    path.write_text(SOURCE)
    code = main(["run", str(path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "actual TLS speedup" in out


def test_cli_run_verbose_and_cpus(tmp_path, capsys):
    path = tmp_path / "prog.mj"
    path.write_text(SOURCE)
    code = main(["run", str(path), "--verbose", "--cpus", "2"])
    out = capsys.readouterr().out
    assert code == 0
    assert "on 2 CPUs" in out


def test_cli_list(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "raytrace" in out


def test_cli_profile(tmp_path, capsys):
    path = tmp_path / "prog.mj"
    path.write_text(SOURCE)
    assert main(["profile", str(path)]) == 0
    out = capsys.readouterr().out
    assert "SELECTED" in out


def test_cli_bench_small(capsys):
    assert main(["run", "FourierTest", "--size", "small"]) == 0
    out = capsys.readouterr().out
    assert "FourierTest" in out


def test_cli_run_adapt_json_with_trace_out(tmp_path, capsys):
    """``run --adapt --json --trace-out`` prints a schema-valid
    adaptation log on stdout and writes a valid Chrome trace."""
    from repro.adapt import validate_log_dict
    from repro.trace import validate_chrome_trace
    out = tmp_path / "adapt.json"
    assert main(["run", "BitOps", "--size", "small", "--adapt",
                 "--epochs", "2", "--trace-out", str(out),
                 "--json"]) == 0
    log = json.loads(capsys.readouterr().out)
    assert validate_log_dict(log) == []
    assert log["outputs_match"] is True
    assert validate_chrome_trace(json.loads(out.read_text())) == []


def test_cli_run_file_and_workload_print_the_same_report(tmp_path,
                                                         capsys):
    from repro.workloads import lookup
    path = tmp_path / "bitops.mj"
    path.write_text(lookup("BitOps").source("small"))
    assert main(["run", str(path)]) == 0
    from_file = capsys.readouterr().out
    assert main(["run", "BitOps", "--size", "small"]) == 0
    from_registry = capsys.readouterr().out
    assert from_file.replace(str(path), "BitOps") == from_registry
    # without --adapt, --json prints the suite's per-workload entry
    assert main(["run", "BitOps", "--size", "small", "--json"]) == 0
    entry = json.loads(capsys.readouterr().out)
    assert entry["name"] == "BitOps"
    assert entry["outputs_match"] is True
    assert "adapt" not in entry


@pytest.mark.parametrize("argv", [
    ["bench", "BitOps"], ["trace", "BitOps"], ["adapt", "BitOps"],
    ["run", "BitOps", "--adapt-epochs", "2"],
    ["run", "BitOps", "--adapt", "--policy", "null"],
    ["suite", "--adapt-epochs", "2"]],
    ids=["bench", "trace", "adapt", "adapt-epochs", "policy",
         "suite-adapt-epochs"])
def test_cli_retired_spellings_are_usage_errors(argv, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2
    assert "usage:" in capsys.readouterr().err


def test_cli_run_adapt_divergence_is_one_line(monkeypatch, capsys):
    """A diverged epoch is a one-line diagnostic naming the program
    and the epoch, exit 1, not a traceback."""
    from repro.adapt import controller
    monkeypatch.setattr(controller, "outputs_equal", lambda a, b: False)
    assert main(["run", "BitOps", "--size", "small", "--adapt"]) == 1
    captured = capsys.readouterr()
    lines = captured.err.strip().splitlines()
    assert len(lines) == 1
    assert "BitOps" in lines[0] and "epoch 0" in lines[0]
    assert "Traceback" not in captured.err
    assert captured.out == ""
