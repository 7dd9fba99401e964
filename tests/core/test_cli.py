"""Unit tests for the command-line interface."""

import os
import subprocess
import sys

import pytest

from repro.cli import main

SRC = """
void filt(co_stream input, co_stream output) {
  uint32 x;
  while (co_stream_read(input, &x)) {
    assert(x < 100);
    co_stream_write(output, x + 1);
  }
  co_stream_close(output);
}
"""


@pytest.fixture
def cfile(tmp_path):
    path = tmp_path / "filt.c"
    path.write_text(SRC)
    return str(path)


def test_compile_writes_verilog_and_report(cfile, tmp_path, capsys):
    outdir = str(tmp_path / "build")
    assert main(["compile", cfile, "-o", outdir]) == 0
    files = sorted(os.listdir(outdir))
    assert "filt.v" in files
    assert "filt__chk0.v" in files
    assert "report.txt" in files
    report = (tmp_path / "build" / "report.txt").read_text()
    assert "Fmax" in report and "comb ALUTs" in report
    verilog = (tmp_path / "build" / "filt.v").read_text()
    assert verilog.startswith("module filt")


def test_compile_level_none_has_single_module(cfile, tmp_path):
    outdir = str(tmp_path / "b2")
    assert main(["compile", cfile, "-o", outdir, "--assertions", "none"]) == 0
    assert sorted(os.listdir(outdir)) == ["filt.v", "report.txt"]


def test_report_prints_table(cfile, capsys):
    assert main(["report", cfile]) == 0
    out = capsys.readouterr().out
    assert "Original" in out and "Assert" in out and "Overhead" in out
    assert "Frequency (MHz)" in out


def test_simulate_runs_both_models(cfile, capsys):
    assert main(["simulate", cfile, "--feed", "1,2,3"]) == 0
    out = capsys.readouterr().out
    assert "software simulation: completed=True" in out
    assert "hardware execution:  completed=True" in out
    assert "[2, 3, 4]" in out
    assert "outputs match: True" in out


def test_simulate_reports_assertion_failure(cfile, capsys):
    assert main(["simulate", cfile, "--feed", "1,999"]) == 0
    out = capsys.readouterr().out
    assert "Assertion failed: x < 100" in out


def test_ablation_flags_accepted(cfile, capsys):
    assert main(["report", cfile, "--no-share", "--no-replicate"]) == 0
    assert main(["report", cfile, "--multichecker"]) == 0


def _repro(*argv, env_extra=None):
    """``python -m repro <argv>`` in a fresh interpreter."""
    src_root = os.path.join(os.path.dirname(__file__), "..", "..", "src")
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = os.path.abspath(src_root)
    env.update(env_extra or {})
    return subprocess.run([sys.executable, "-m", "repro", *argv], env=env,
                          capture_output=True, text=True, timeout=120)


def test_bad_source_exits_with_one_coded_line(tmp_path):
    bad = tmp_path / "bad.c"
    bad.write_text("void p(co_stream a) { uint32 x = ; }\n")
    proc = _repro("compile", str(bad), "-o", str(tmp_path / "out"))
    assert proc.returncode != 0
    assert "Traceback" not in proc.stderr
    assert proc.stderr.strip().splitlines() == [
        "bad.c:1:34: error[RPR-S001]: expected an expression before ';'"]


def test_malformed_chaos_spec_exits_with_one_coded_line(tmp_path):
    proc = _repro("sweep", "--apps", "loopback:2",
                  "--store", str(tmp_path / "runs"),
                  "--cache", str(tmp_path / "cache"),
                  env_extra={"REPRO_CHAOS": "{not json"})
    assert proc.returncode != 0
    assert "Traceback" not in proc.stderr
    [line] = [ln for ln in proc.stderr.splitlines() if "error[" in ln]
    assert line.startswith("error[RPR-E005]: malformed $REPRO_CHAOS")
