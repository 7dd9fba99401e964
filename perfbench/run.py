"""The repository benchmark: ``cli``, ``sweep`` and ``campaign`` workloads.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 30 --trace 0

Run from a checkout of the repository (the program is imported from its
``src`` directory). Every measured leg runs in a fresh interpreter with
fresh cache and store directories under ``.perfbench/`` in the checkout,
and with ``REPRO_*`` variables scrubbed from its environment. Each
workload is a closed loop with one client (``jobs=1``).

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs one unit
of work traced and one untraced and reports per-layer self times, counts
and the tracing overhead, and writes a Chrome trace-event file. The last
line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it name every
metric with its unit. The exit code is non-zero when any correctness
check fails. See ``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402
from tracer import LAYERS  # noqa: E402

#: wall-clock cap for one child process
CHILD_TIMEOUT_S = 150
#: cli invocations needed before a p75 has ten samples beyond it
CLI_MIN_INVOCATIONS = 40
CLI_SETUPS = 3
CAMPAIGN_MIN_UNITS = 4
CAMPAIGN_CELLS = inputs.CAMPAIGN_COUNT * len(inputs.CAMPAIGN_LEVELS)
SWEEP_POINTS = (len(inputs.LOOPBACK_SIZES) + 3) * len(inputs.SWEEP_LEVELS)
#: Table 1 gate: every resource overhead below this share of the device
TABLE1_MAX_PCT = 0.13

TIMED_LAYERS = tuple(dict.fromkeys(layer for layer, _m, _a in LAYERS))
COUNTED_LAYERS = ("frontend.parse", "core.synth_process",
                  "hls.compile_process", "simc.make_process_exec")


class LegFailed(Exception):
    """A child process exited non-zero or timed out."""


class Run:
    """Work directory, child environment, checks and op accounting."""

    def __init__(self, workload: str, seed: int) -> None:
        self.seed = seed
        self.base = ROOT / ".perfbench"
        self.work = self.base / f"{workload}-{seed}-{os.getpid()}"
        self.work.mkdir(parents=True, exist_ok=True)
        (self.work / "tmp").mkdir()
        env = {k: v for k, v in os.environ.items()
               if not k.startswith("REPRO_") and k not in (
                   "PYTHONDONTWRITEBYTECODE", "PYTHONPYCACHEPREFIX",
                   "PYTHONSTARTUP")}
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
        env["PYTHONHASHSEED"] = "0"
        env["TMPDIR"] = str(self.work / "tmp")
        self.env = env
        self.failures: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.setups: list[float] = []
        self.chrome: list[dict] = []
        self._n = 0

    def check(self, ok: bool, what: str) -> bool:
        if not ok:
            self.failures.append(what)
        return ok

    def spawn(self, argv: list[str], cwd: Path) -> tuple[float, float, object]:
        """Run one child to completion: (spawn time, wall s, process)."""
        t0 = time.monotonic()
        try:
            proc = subprocess.run(argv, cwd=cwd, env=self.env,
                                  capture_output=True, text=True,
                                  timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            raise LegFailed(f"timed out: {argv[1:4]}") from None
        return t0, time.monotonic() - t0, proc

    def leg(self, kind: str, workdir: Path, trace: bool = False,
            argv: list[str] = (), **opts) -> dict:
        """Run ``leg.py kind`` in a fresh interpreter; its JSON result
        with ``setup_s`` (spawn to first timed operation) and
        ``latency_s`` (spawn to exit) added. ``argv`` follows ``--``."""
        self._n += 1
        out = self.work / f"leg{self._n}.json"
        cmd = [sys.executable, str(HERE / "leg.py"), kind,
               "--workdir", str(workdir), "--seed", str(self.seed),
               "--out", str(out)]
        for key, value in opts.items():
            cmd += [f"--{key}", str(value)]
        trace_out = self.work / f"leg{self._n}.trace.json"
        if trace:
            cmd += ["--trace-out", str(trace_out)]
        if argv:
            cmd += ["--", *argv]
        t0, wall, proc = self.spawn(cmd, workdir)
        if proc.returncode != 0:
            raise LegFailed(f"{kind} {opts} exited {proc.returncode}: "
                            f"{proc.stderr.strip()[-2000:]}")
        result = json.loads(out.read_text())
        result["setup_s"] = result["ready"] - t0
        result["latency_s"] = wall
        if trace:
            self.chrome += json.loads(trace_out.read_text())
        return result

    def op_failed(self, what: str, ops: int = 1) -> None:
        self.failed += ops
        self.check(False, what)


def repeat(seconds: float, enough, unit) -> list | None:
    """Results of ``unit()`` until ``enough(results)`` holds and one more
    unit, as long as the last one, would end after ``seconds``; None as
    soon as a unit fails."""
    results: list = []
    t0 = time.monotonic()
    while True:
        u0 = time.monotonic()
        res = unit()
        if res is None:
            return None
        results.append(res)
        now = time.monotonic()
        if enough(results) and now - t0 + (now - u0) > seconds:
            return results


def traced_pair(unit) -> tuple[list[dict], dict] | None:
    """One unit untraced, then one traced: (traced legs, per-layer
    metrics). ``unit(trace)`` returns the unit's leg results."""
    plain = unit(False)
    traced = unit(True) if plain else None
    if not traced:
        return None
    return traced, traced_metrics(
        traced, sum(leg["latency_s"] for leg in plain),
        sum(leg["latency_s"] for leg in traced))


# ---- cli --------------------------------------------------------------------


def cli_setup(run: Run) -> dict:
    setup = run.leg("cli-setup", run.work)
    run.setups.append(setup["setup_s"])
    (run.work / "out").mkdir(exist_ok=True)
    return setup


def check_cli_output(run: Run, argv: list[str], rc: int, stdout: str,
                     setup: dict) -> None:
    cmd, src = argv[0], argv[1]
    if rc != 0:
        run.op_failed(f"cli {cmd} {src} exited {rc}")
    elif cmd == "report":
        run.check(stdout.rstrip("\n") ==
                  setup["expected_reports"][src].rstrip("\n"),
                  f"cli report {src}: table differs from overhead_report")
    elif cmd == "compile":
        run.check((run.work / argv[3] / "report.txt").is_file()
                  and "Fmax:" in stdout, f"cli compile {src}: no report")
    elif cmd == "synth":
        run.check("synthesized cleanly" in stdout,
                  f"cli synth {src}: not clean")
    elif cmd == "simulate":
        run.check("outputs match: True" in stdout,
                  f"cli simulate {src}: outputs do not match")


def cli_cycle(run: Run, setup: dict,
              trace: bool = False) -> list[dict] | None:
    """One pass over the cli commands: one result with ``latency_s`` per
    invocation (the traced leg result when tracing); None as soon as an
    invocation fails."""
    done = []
    for argv in inputs.cli_commands():
        argv = [setup["feed"] if a == "{feed}" else a for a in argv]
        run.attempted += 1
        try:
            if trace:
                res = run.leg("cli-invoke", run.work, trace=True, argv=argv)
                rc, stdout = res["returncode"], res["stdout"]
            else:
                _t0, wall, proc = run.spawn(
                    [sys.executable, "-m", "repro", *argv], run.work)
                res = {"latency_s": wall}
                rc, stdout = proc.returncode, proc.stdout
        except LegFailed as exc:
            run.op_failed(str(exc))
            return None
        check_cli_output(run, argv, rc, stdout, setup)
        if rc != 0:
            return None
        done.append(res)
    return done


def workload_cli(run: Run, seconds: float, trace: bool) -> dict:
    setup = cli_setup(run)
    if trace:
        pair = traced_pair(lambda tr: cli_cycle(run, setup, trace=tr))
        return pair[1] if pair else {}
    for _ in range(CLI_SETUPS - 1):
        again = cli_setup(run)
        run.check(again["expected_reports"] == setup["expected_reports"],
                  "cli set-up is not deterministic")
    cycles = repeat(
        seconds,
        lambda done: sum(map(len, done)) >= CLI_MIN_INVOCATIONS,
        lambda: cli_cycle(run, setup))
    if cycles is None:
        return {}
    latencies = [res["latency_s"] for cycle in cycles for res in cycle]
    p50 = statistics.median(latencies)
    p75 = statistics.quantiles(latencies, n=4)[2]
    say("cli_p50_s", p50, "s", f"{len(latencies)} invocations")
    say("cli_p75_s", p75, "s", f"{len(latencies)} invocations")
    return {"primary_s": p50, "secondary_s": p75}


# ---- sweep ------------------------------------------------------------------

SWEEP_PASSES = ("cold", "warm", "edit")


def _point(points: dict, prefix: str, level: str) -> dict | None:
    for pid, rec in points.items():
        if pid.startswith(prefix) and pid.endswith(f"/{level}"):
            return rec["summary"]
    return None


def check_sweep(run: Run, passes: dict[str, dict]) -> None:
    for name, res in passes.items():
        c = res["counters"]
        run.check(c["done"] == SWEEP_POINTS and c["failed"] == 0,
                  f"sweep {name}: {c['failed']} failed, {c['done']} done")
    cold, warm, edit = (passes[p]["points"] for p in SWEEP_PASSES)
    run.check(passes["cold"]["counters"]["cache_hits"] == 0,
              "sweep cold pass hit the cache (not isolated)")
    run.check(passes["warm"]["counters"]["cache_misses"] == 0,
              "sweep warm pass missed the cache")
    for pid, rec in cold.items():
        run.check(warm.get(pid, {}).get("summary") == rec["summary"],
                  f"sweep warm {pid}: point_summary differs from cold")
    edited = [pid for pid in edit if pid not in cold]
    run.check(len(edited) == len(inputs.SWEEP_LEVELS),
              f"sweep edit: {len(edited)} edited points")
    for pid, rec in edit.items():
        if pid in cold:
            run.check(rec["summary"] == cold[pid]["summary"],
                      f"sweep edit {pid}: point_summary differs from cold")
        else:
            run.check(rec["resyntheses"] == 1,
                      f"sweep edit {pid}: {rec['resyntheses']} resyntheses")
    # Table 1: Triple-DES optimized overhead below 0.13% of the device
    dev = passes["cold"]["device"]
    base, opt = (_point(cold, "tripledes(", lv) for lv in ("none",
                                                            "optimized"))
    if run.check(base is not None and opt is not None, "sweep: no tdes"):
        caps = {"logic": dev["aluts"], "comb_aluts": dev["aluts"],
                "registers": dev["registers"], "bram_bits": dev["bram_bits"],
                "interconnect": dev["block_interconnect"]}
        worst = max(100.0 * (opt[k] - base[k]) / cap
                    for k, cap in caps.items())
        run.check(worst < TABLE1_MAX_PCT,
                  f"sweep Table 1: overhead {worst:.3f}% of device")
    # Fig 4 @128: unoptimized Fmax drops 10-30%, optimized within 5%
    fmax = {lv: _point(cold, "loopback(n=128)", lv)
            for lv in inputs.SWEEP_LEVELS}
    if run.check(all(fmax.values()), "sweep: no loopback 128"):
        f0 = fmax["none"]["fmax_mhz"]
        drop = (f0 - fmax["unoptimized"]["fmax_mhz"]) / f0
        run.check(0.10 <= drop <= 0.30,
                  f"sweep Fig 4: unoptimized Fmax drop {drop:.3f}")
        run.check(abs(fmax["optimized"]["fmax_mhz"] - f0) / f0 <= 0.05,
                  "sweep Fig 4: optimized Fmax off by more than 5%")


def sweep_unit(run: Run, trace: bool = False) -> list[dict] | None:
    """Cold, warm and edit passes sharing one fresh cache directory."""
    workdir = Path(tempfile.mkdtemp(prefix="sweep", dir=run.work))
    passes = {}
    for name in SWEEP_PASSES:
        run.attempted += SWEEP_POINTS
        try:
            res = run.leg("sweep-pass", workdir, trace=trace, **{"pass": name})
        except LegFailed as exc:
            run.op_failed(str(exc), SWEEP_POINTS)
            return None
        run.failed += res["counters"]["failed"]
        run.setups.append(res["setup_s"])
        passes[name] = res
    check_sweep(run, passes)
    shutil.rmtree(workdir)
    return [passes[name] for name in SWEEP_PASSES]


def workload_sweep(run: Run, seconds: float, trace: bool) -> dict:
    if trace:
        pair = traced_pair(lambda tr: sweep_unit(run, trace=tr))
        if pair is None:
            return {}
        legs, metrics = pair
        for name, res in zip(SWEEP_PASSES, legs):
            c = res["counters"]
            metrics[f"lab.cache.app_hit_ratio.{name}"] = ratio(
                c["cache_hits"], c["cache_hits"] + c["cache_misses"])
        c = legs[SWEEP_PASSES.index("edit")]["counters"]
        metrics["lab.incremental.resyntheses"] = c["resyntheses"]
        metrics["lab.incremental.proc_hit_ratio"] = ratio(
            c["proc_hits"], c["proc_hits"] + c["proc_misses"])
        return metrics
    units = repeat(seconds, lambda done: True, lambda: sweep_unit(run))
    if units is None:
        return {}
    walls = {name: statistics.median(u[i]["wall_s"] for u in units)
             for i, name in enumerate(SWEEP_PASSES)}
    for name, value in walls.items():
        say(f"sweep_{name}_s", value, "s",
            f"median of {len(units)} passes of {SWEEP_POINTS} points")
    return {"primary_s": walls["cold"], "secondary_s": walls["warm"]}


# ---- campaign ---------------------------------------------------------------

CAMPAIGN_MODES = ("scalar", "batched")


def campaign_unit(run: Run, unit: int, trace: bool = False) -> list | None:
    """The scalar and the batched leg of campaign ``unit``'s seed."""
    legs = []
    for mode in CAMPAIGN_MODES:
        workdir = Path(tempfile.mkdtemp(prefix="campaign", dir=run.work))
        run.attempted += CAMPAIGN_CELLS
        try:
            res = run.leg("campaign-leg", workdir, trace=trace, unit=unit,
                          mode=mode)
        except LegFailed as exc:
            run.op_failed(str(exc), CAMPAIGN_CELLS)
            return None
        shutil.rmtree(workdir)
        run.failed += res["harness_errors"]
        run.setups.append(res["setup_s"])
        run.check(res["harness_errors"] == 0,
                  f"campaign {mode} unit {unit}: "
                  f"{res['harness_errors']} harness-error cells")
        run.check(len(res["records"]) == CAMPAIGN_CELLS,
                  f"campaign {mode} unit {unit}: "
                  f"{len(res['records'])} cells")
        legs.append(res)
    run.check(legs[0]["records"] == legs[1]["records"],
              f"campaign unit {unit}: batched records differ from scalar")
    return legs


def workload_campaign(run: Run, seconds: float, trace: bool) -> dict:
    if trace:
        pair = traced_pair(lambda tr: campaign_unit(run, 0, trace=tr))
        return pair[1] if pair else {}
    seeds = itertools.count()
    units = repeat(
        seconds, lambda done: len(done) >= CAMPAIGN_MIN_UNITS,
        lambda: campaign_unit(run, next(seeds)))
    if units is None:
        return {}
    totals = {mode: sum(u[i]["wall_s"] for u in units)
              for i, mode in enumerate(CAMPAIGN_MODES)}
    for mode, total in totals.items():
        say(f"campaign_{mode}_cells_per_s",
            len(units) * CAMPAIGN_CELLS / total, "1/s",
            f"{len(units)} campaigns of {CAMPAIGN_CELLS} cells")
    return {"primary_s": totals["scalar"] / len(units),
            "secondary_s": totals["batched"] / len(units)}


# ---- traced runs ------------------------------------------------------------


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def traced_metrics(legs: list[dict], plain_s: float, traced_s: float) -> dict:
    """Per-layer metrics summed over the traced legs of one unit."""
    self_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    counters: dict[str, int] = {}
    for leg in legs:
        for name, st in leg["trace"]["layers"].items():
            key = "unattributed" if name.startswith("leg.") else name
            self_s[key] = self_s.get(key, 0.0) + st["self_s"]
            calls[key] = calls.get(key, 0) + st["calls"]
        for name, n in leg["trace"]["counters"].items():
            counters[name] = counters.get(name, 0) + n
    metrics = {"import.repro_cli_s": statistics.median(
        leg["import_repro_cli_s"] for leg in legs)}
    for name in TIMED_LAYERS + ("unattributed",):
        metrics[f"{name}.self_s"] = self_s.get(name, 0.0)
    for name in COUNTED_LAYERS:
        metrics[f"{name}.calls"] = calls.get(name, 0)
    cycles = counters.get("runtime.execute.sim_cycles", 0)
    lane_cycles = counters.get("runtime.execute_batch.lane_cycles", 0)
    metrics["runtime.execute.host_ns_per_sim_cycle"] = ratio(
        1e9 * self_s.get("runtime.execute", 0.0), cycles)
    metrics["runtime.execute_batch.host_ns_per_lane_cycle"] = ratio(
        1e9 * self_s.get("runtime.execute_batch", 0.0), lane_cycles)
    metrics["runtime.sim_cycles"] = cycles + lane_cycles
    # sweep-only counters (zero where the workload has no sweep pass)
    for name in ("cold", "warm", "edit"):
        metrics[f"lab.cache.app_hit_ratio.{name}"] = 0.0
    metrics["lab.incremental.resyntheses"] = 0
    metrics["lab.incremental.proc_hit_ratio"] = 0.0
    metrics["trace.overhead_s"] = traced_s - plain_s
    metrics["trace.overhead_frac"] = ratio(traced_s - plain_s, plain_s)
    # shares of the traced time, counting each leg's cli import as a layer
    self_s["import.repro_cli"] = sum(leg["import_repro_cli_s"]
                                     for leg in legs)
    total = sum(self_s.values())
    for name, value in sorted(self_s.items(), key=lambda kv: -kv[1]):
        say(f"share.{name}", 100.0 * ratio(value, total), "%",
            f"{value:.4f} s self of {total:.4f} s traced")
    return metrics


# ---- entry point ------------------------------------------------------------

WORKLOADS = {
    "cli": workload_cli,
    "sweep": workload_sweep,
    "campaign": workload_campaign,
}


def say(name: str, value: float, unit: str, note: str = "") -> None:
    print(f"{name:<48} {value:>14.6f} {unit:<8} {note}".rstrip(), flush=True)


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program under {ROOT / 'src'}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    run = Run(args.workload, args.seed)
    try:
        # byte-compile once, outside every timed region
        run.spawn([sys.executable, "-m", "compileall", "-q",
                   str(ROOT / "src"), str(HERE)], ROOT)
        values = WORKLOADS[args.workload](run, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(run.work, ignore_errors=True)
    if args.trace:
        trace_path = run.base / f"trace-{args.workload}-{args.seed}.json"
        trace_path.write_text(json.dumps(
            {"traceEvents": run.chrome, "displayTimeUnit": "ms"}))
        print(f"chrome trace: {trace_path.relative_to(ROOT)}")
        wanted = spec["per_layer"]
    else:
        if run.setups:
            values["setup_s"] = statistics.median(run.setups)
        values["peak_rss_mb"] = resource.getrusage(
            resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
        wanted = spec["end_to_end"]
    metrics = {}
    for m in wanted:
        if m["name"] in values:
            metrics[m["name"]] = {"value": values[m["name"]],
                                  "unit": m["unit"]}
            say(m["name"], values[m["name"]], m["unit"])
    say("ops_failed_frac", ratio(run.failed, run.attempted), "ratio",
        f"{run.failed} of {run.attempted} operations")
    for what in run.failures:
        print(f"CHECK FAILED: {what}", flush=True)
    correct = not run.failures and len(metrics) == len(wanted)
    if len(metrics) != len(wanted):
        print("CHECK FAILED: metrics missing: " + ", ".join(
            m["name"] for m in wanted if m["name"] not in metrics))
    print(json.dumps({"correct": correct, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
