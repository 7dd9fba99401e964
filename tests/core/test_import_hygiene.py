"""A ``repro`` invocation loads only what its command runs.

Each check runs a fresh interpreter and inspects ``sys.modules`` once the
work is done; nothing here measures time.
"""

import json
import os
import subprocess
import sys

import pytest

SRC_ROOT = os.path.abspath(
    os.path.join(os.path.dirname(__file__), "..", "..", "src"))

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

#: runs ``python -m repro <argv>`` in-process, then prints the loaded
#: module names as the last line of stdout
RUN_CLI = """
import json, runpy, sys
sys.argv = ["repro", *sys.argv[1:]]
try:
    runpy.run_module("repro", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    assert not exc.code, exc.code
print(json.dumps(sorted(sys.modules)))
"""


def _modules(code: str, *argv: str, env_extra: dict | None = None) -> set[str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = SRC_ROOT + os.pathsep + env.get("PYTHONPATH", "")
    env.update(env_extra or {})
    proc = subprocess.run([sys.executable, "-c", code, *argv], env=env,
                          capture_output=True, text=True, check=True)
    return set(json.loads(proc.stdout.strip().splitlines()[-1]))


def _under(modules: set[str], *packages: str) -> list[str]:
    return sorted(m for m in modules
                  if any(m == p or m.startswith(p + ".") for p in packages))


@pytest.fixture
def cfile(tmp_path):
    path = tmp_path / "filt.c"
    path.write_text(SRC)
    return str(path)


def test_importing_the_cli_loads_no_part_of_the_flow():
    loaded = _modules("import json, sys, repro.cli; "
                      "print(json.dumps(sorted(sys.modules)))")
    assert "repro.cli" in loaded
    assert _under(loaded, "networkx", "repro.core", "repro.frontend",
                  "repro.lab") == []


def test_help_loads_no_part_of_the_flow():
    loaded = _modules(RUN_CLI, "--help")
    assert _under(loaded, "networkx", "repro.core", "repro.frontend",
                  "repro.lab") == []


def test_help_lists_no_daemon_commands():
    env = dict(os.environ, PYTHONPATH=SRC_ROOT)
    out = subprocess.run([sys.executable, "-m", "repro", "--help"], env=env,
                         capture_output=True, text=True, check=True).stdout
    commands = out.split("{", 1)[1].split("}", 1)[0].split(",")
    assert "sweep" in commands
    assert "serve" not in commands and "submit" not in commands
    for retired in ("serve", "submit"):
        proc = subprocess.run([sys.executable, "-m", "repro", retired],
                              env=env, capture_output=True, text=True)
        assert proc.returncode == 2
        assert f"invalid choice: '{retired}'" in proc.stderr


@pytest.mark.parametrize("argv", [
    ("synth",),
    ("simulate", "--feed", "1,2,3"),
])
def test_single_design_commands_load_no_lab_or_serve(cfile, argv):
    loaded = _modules(RUN_CLI, argv[0], cfile, *argv[1:])
    assert "repro.core.synth" in loaded
    assert _under(loaded, "networkx", "repro.lab") == []


def test_simulate_still_fills_a_configured_lab_cache(cfile, tmp_path):
    cache = tmp_path / "cache"
    loaded = _modules(RUN_CLI, "simulate", cfile, "--feed", "1,2,3",
                      env_extra={"REPRO_LAB_CACHE": str(cache)})
    assert "repro.lab.bench" in loaded
    assert list(cache.glob("objects/simc-*.pkl"))


def test_the_flow_has_no_parser_dependency():
    # the frontend parses the dialect in-tree: lowering Triple-DES (the
    # largest app) must not load pycparser, even where it is installed
    modules = _modules(
        "import json, sys\n"
        "from repro.apps.tripledes import tdes_source\n"
        "from repro.frontend.lowering import lower_source\n"
        "module = lower_source(tdes_source(1, 2, 3), filename='tdes.c')\n"
        "assert module.functions\n"
        "print(json.dumps(sorted(sys.modules)))\n")
    assert "repro.frontend.parser" in modules
    assert _under(modules, "pycparser") == []
