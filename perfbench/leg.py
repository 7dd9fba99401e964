"""One leg of a workload, run in a fresh interpreter by ``run.py``.

    python perfbench/leg.py sweep-pass --workdir W --seed S --pass cold --out R.json
    python perfbench/leg.py campaign-leg --workdir W --seed S --unit K --mode scalar --out R.json
    python perfbench/leg.py cli-setup --workdir W --seed S --out R.json
    python perfbench/leg.py cli-invoke --workdir W --out R.json -- report inputs/tdes.c

Every leg writes one JSON result to ``--out``: ``ready`` (the monotonic
clock when the first timed operation starts, so the parent can compute
set-up time from its spawn time), ``wall_s`` and the outputs the parent
checks. With ``--trace-out`` the leg installs the span tracer first and
also writes its spans (Chrome trace events) and per-layer totals.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import io
import json
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import inputs  # noqa: E402
import tracer as tracing  # noqa: E402

#: record fields ``run_sweep`` adds around ``point_summary``; what is left
#: of a record is exactly the point summary the passes must agree on
SWEEP_ENVELOPE = frozenset({
    "point_id", "app", "level", "variant", "key", "cache_hit",
    "resyntheses", "proc_hits", "proc_misses", "partial_rebuild",
    "cache_stats", "elapsed_s", "status", "attempts",
})


class Leg:
    """Optional tracing around one leg, plus its result payload."""

    def __init__(self, trace_out: str | None, label: str) -> None:
        self.trace_out = trace_out
        self.label = label
        self.result: dict = {}
        self.tracer = None
        if trace_out:
            t0 = time.perf_counter()
            import repro.cli  # noqa: F401 - timed import of the cli layer
            self.result["import_repro_cli_s"] = time.perf_counter() - t0
            self.tracer = tracing.Tracer()
            tracing.install(self.tracer)

    @contextlib.contextmanager
    def timed(self):
        """The leg's timed region (a root span when tracing)."""
        self.result["ready"] = time.monotonic()
        t0 = time.perf_counter()
        if self.tracer is None:
            yield
        else:
            with self.tracer.span(f"leg.{self.label}"):
                yield
        self.result["wall_s"] = time.perf_counter() - t0

    def write(self, out: str) -> None:
        if self.tracer is not None:
            self.result["trace"] = self.tracer.summary()
            with open(self.trace_out, "w") as fh:
                json.dump(self.tracer.chrome_events(os.getpid(), self.label),
                          fh)
        with open(out, "w") as fh:
            json.dump(self.result, fh, sort_keys=True)


def sweep_pass(args, leg: Leg) -> None:
    from repro.lab.sweep import run_sweep

    spec = inputs.sweep_spec(args.seed, edited=args.pass_ == "edit")
    with leg.timed():
        result = run_sweep(
            spec, jobs=1, store_root=os.path.join(args.workdir,
                                                  f"store-{args.pass_}"),
            cache_root=os.path.join(args.workdir, "cache"),
            resume=False, progress=False,
        )
    leg.result["counters"] = result.manifest["counters"]
    leg.result["device"] = dataclasses.asdict(spec.points[0].device)
    leg.result["points"] = {
        pid: {
            "status": rec.get("status"),
            "resyntheses": rec.get("resyntheses", 0),
            "summary": {k: v for k, v in rec.items()
                        if k not in SWEEP_ENVELOPE},
        }
        for pid, rec in result.records.items()
    }


def campaign_leg(args, leg: Leg) -> None:
    from repro.faults.campaign import record_from_outcome, run_campaign

    target = inputs.campaign_target(args.seed)
    cseed = inputs.campaign_seed(args.seed, args.unit)
    with leg.timed():
        result = run_campaign(
            target, levels=inputs.CAMPAIGN_LEVELS, seed=cseed,
            count=inputs.CAMPAIGN_COUNT, jobs=1,
            cache_root=os.path.join(args.workdir, "cache"),
            batch_lanes=8 if args.mode == "batched" else 1,
        )
    leg.result["campaign_seed"] = cseed
    leg.result["records"] = [record_from_outcome(oc)
                             for oc in result.outcomes]
    leg.result["harness_errors"] = len(result.harness_errors)


def cli_setup(args, leg: Leg) -> None:
    """Write the cli sources and feed; compute the expected reports."""
    from repro.core.synth import SynthesisOptions, synthesize
    from repro.platform.report import overhead_report
    from repro.runtime.taskgraph import Application

    indir = os.path.join(args.workdir, "inputs")
    os.makedirs(indir, exist_ok=True)
    expected = {}
    for filename, source in inputs.cli_sources(args.seed).items():
        with open(os.path.join(indir, filename), "w") as fh:
            fh.write(source)
        # the same single-process wiring ``repro report`` builds
        app = Application(os.path.splitext(filename)[0])
        pd = app.add_c_process(source, filename=filename)
        app.feed("cli_in", f"{pd.name}.{pd.stream_params[0]}", data=[])
        app.sink("cli_out", f"{pd.name}.{pd.stream_params[1]}")
        if filename == "edge16.c":
            continue  # only simulated
        report = overhead_report(
            synthesize(app, assertions="none"),
            synthesize(app, assertions="optimized",
                       options=SynthesisOptions()))
        expected[f"inputs/{filename}"] = report.render(
            f"ASSERTION OVERHEAD ({filename}, optimized)")
    leg.result["expected_reports"] = expected
    leg.result["feed"] = ",".join(map(str, inputs.simulate_feed(args.seed)))
    leg.result["ready"] = time.monotonic()


def cli_invoke(args, leg: Leg) -> None:
    """``repro.cli.main(argv)`` in-process (the traced cli entry point)."""
    import repro.cli

    out = io.StringIO()
    with leg.timed(), contextlib.redirect_stdout(out):
        try:
            rc = repro.cli.main(args.argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
    leg.result["returncode"] = rc
    leg.result["stdout"] = out.getvalue()


MODES = {
    "sweep-pass": sweep_pass,
    "campaign-leg": campaign_leg,
    "cli-setup": cli_setup,
    "cli-invoke": cli_invoke,
}


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("kind", choices=sorted(MODES))
    p.add_argument("--workdir", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--pass", dest="pass_", choices=("cold", "warm", "edit"))
    p.add_argument("--unit", type=int, default=0)
    p.add_argument("--mode", choices=("scalar", "batched"))
    p.add_argument("--out", required=True)
    p.add_argument("--trace-out", default=None)
    argv = sys.argv[1:] if argv is None else argv
    # everything after ``--`` is the cli command line (cli-invoke)
    cut = argv.index("--") if "--" in argv else len(argv)
    args = p.parse_args(argv[:cut])
    args.argv = argv[cut + 1:]
    label = {"sweep-pass": f"sweep.{args.pass_}",
             "campaign-leg": f"campaign.{args.mode}.{args.unit}",
             }.get(args.kind, args.kind)
    leg = Leg(args.trace_out, label)
    MODES[args.kind](args, leg)
    leg.write(args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
