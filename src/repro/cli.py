"""Command-line interface: compile dialect C to Verilog + reports.

    python -m repro compile app.c [--assertions LEVEL] [-o OUTDIR]
    python -m repro synth app.c [--color | --json] [--bundle DIR]
    python -m repro report  app.c [--assertions LEVEL]
    python -m repro simulate app.c --feed 1,2,3 [--assertions LEVEL]
    python -m repro campaign --app tripledes --seed 0 --count 8 [--jobs N]
    python -m repro sweep --apps loopback:4,edge:16x8 --levels none,optimized \\
        --jobs 4 --store lab-runs --cache lab-cache \\
        [--shard K/N] [--retries 2]
    python -m repro merge <run-id-or-prefix> --store lab-runs
    python -m repro replay lab-runs/<run>/bundles/<point>

``compile`` writes one ``.v`` file per process plus ``report.txt`` (area,
Fmax, pipeline timing). ``report`` prints the original-vs-assert overhead
table (the paper's Table 1/2 format). ``simulate`` runs the single-process
application through software simulation and cycle-accurate hardware
execution and diffs them. ``campaign`` sweeps seeded fault-injection
scenarios across one of the paper's applications and prints the
detection-coverage matrix (assertion vs. watchdog vs. silent). ``sweep``
runs a declarative design-space cross product (app x assertion level x
optimization variant) through the parallel lab executor with a
content-addressed synthesis cache and a resumable JSONL result store.
``synth`` runs the collect-mode frontend (every error in one pass,
Clang-style caret excerpts, stable ``RPR-*`` codes) and then full
synthesis, optionally writing a replayable failure bundle. ``replay``
re-runs a failure bundle (from ``synth``, a sweep, a campaign or a
difftest) and exits 0 iff the recorded diagnostics reproduce
byte-for-byte. ``sweep``, ``campaign`` and ``difftest`` all accept
``--shard K/N`` (run one deterministic slice of the space) and
``--retries`` (exponential-backoff retry of transient failures);
``merge`` folds per-shard run directories back into one canonical run,
byte-identical to merging an unsharded run.

The C file must contain exactly one process whose first stream parameter
is the input and second the output (the common case); richer task graphs
use the Python API.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.core.synth import SynthesisOptions
    from repro.runtime.taskgraph import Application

#: flow entry points the commands import when they run, so ``import
#: repro.cli`` (and ``repro --help``) loads argparse and no part of the
#: flow; they stay reachable as ``repro.cli.<name>`` attributes
_FLOW_NAMES = frozenset({
    "Application", "SynthesisOptions", "execute", "estimate_fmax",
    "estimate_image", "execution_summary", "overhead_report",
    "software_sim", "synthesize",
})


def __getattr__(name: str):
    if name not in _FLOW_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import repro

    return getattr(repro, name)


def _build_app(path: str, feed: list[int]) -> Application:
    from repro.runtime.taskgraph import Application

    with open(path) as fh:
        source = fh.read()
    app = Application(os.path.splitext(os.path.basename(path))[0])
    pd = app.add_c_process(source, filename=os.path.basename(path))
    params = pd.stream_params
    if len(params) < 1:
        raise SystemExit(f"{path}: the process has no stream parameters")
    if len(params) >= 2:
        app.feed("cli_in", f"{pd.name}.{params[0]}", data=feed)
        app.sink("cli_out", f"{pd.name}.{params[1]}")
        for extra in params[2:]:
            app.sink(f"cli_{extra}", f"{pd.name}.{extra}")
    else:
        app.sink("cli_out", f"{pd.name}.{params[0]}")
    return app


def _options(args) -> SynthesisOptions:
    from repro.core.synth import SynthesisOptions

    return SynthesisOptions(
        parallelize=not args.no_parallelize,
        replicate=not args.no_replicate,
        share=not args.no_share,
        multichecker=args.multichecker,
        sim_backend=getattr(args, "sim_backend", "compiled"),
    )


def _options_dict(args) -> dict:
    return {
        "parallelize": not args.no_parallelize,
        "replicate": not args.no_replicate,
        "share": not args.no_share,
        "multichecker": args.multichecker,
        "sim_backend": getattr(args, "sim_backend", "compiled"),
    }


def cmd_synth(args) -> int:
    import json as _json

    from repro.diagnostics import Diagnostic
    from repro.diagnostics.bundle import write_bundle
    from repro.diagnostics.codes import render_code_table
    from repro.diagnostics.engine import synth_diagnostics
    from repro.diagnostics.render import render_diagnostics

    if args.help_codes:
        print(render_code_table())
        return 0
    if not args.source:
        raise SystemExit("synth: a source file is required "
                         "(or use --help-codes)")
    with open(args.source) as fh:
        source = fh.read()
    filename = os.path.basename(args.source)
    feed = [int(v, 0) for v in args.feed.split(",")] if args.feed else []
    options = _options_dict(args)

    _check, diags = synth_diagnostics(
        source, filename=filename, level=args.assertions,
        options=options, feed=feed or None,
    )
    failed = any(d.get("severity") == "error" for d in diags)

    if args.json:
        print(_json.dumps({"diagnostics": diags}, indent=2, sort_keys=True))
    else:
        if diags:
            print(render_diagnostics(
                [Diagnostic.from_dict(d) for d in diags],
                sources={filename: source}, color=args.color,
            ))
        if not failed:
            print(f"{filename}: synthesized cleanly "
                  f"(assertions={args.assertions})")

    if failed and args.bundle:
        path = write_bundle(
            args.bundle, "synth", diags,
            context={
                "filename": filename,
                "level": args.assertions,
                "options": options,
                "feed": feed or None,
            },
            source=source,
        )
        print(f"failure bundle: {path}", file=sys.stderr)
    return 1 if failed else 0


def cmd_replay(args) -> int:
    import json as _json

    from repro.diagnostics import Diagnostic
    from repro.diagnostics.bundle import read_bundle, replay_bundle
    from repro.diagnostics.render import render_diagnostics

    bundle = read_bundle(args.bundle)
    result = replay_bundle(bundle)

    if args.json:
        print(_json.dumps(
            {"kind": bundle.kind, "reproduced": result.ok,
             "expected": bundle.diagnostics, "actual": result.diagnostics},
            indent=2, sort_keys=True))
        return 0 if result.ok else 1

    # the bundled source is keyed under every file its spans mention, so
    # caret excerpts render no matter what the original filename was
    sources = {}
    if bundle.source is not None:
        for d in result.diagnostics:
            span = d.get("span") or {}
            if span.get("file"):
                sources[span["file"]] = bundle.source
    if result.diagnostics:
        print(render_diagnostics(
            [Diagnostic.from_dict(d) for d in result.diagnostics],
            sources=sources, color=args.color,
        ))
    else:
        print(f"{args.bundle}: replay produced no diagnostics")
    if result.ok:
        print(f"{args.bundle}: {bundle.kind} failure reproduced "
              "bit-identically")
        return 0
    print(f"{args.bundle}: replay DIVERGED from the recorded diagnostics "
          "(the failure did not reproduce; toolchain or environment "
          "changed since the bundle was written)", file=sys.stderr)
    return 1


def cmd_compile(args) -> int:
    from repro.core.synth import synthesize
    from repro.platform.resources import estimate_image
    from repro.platform.timing import estimate_fmax
    from repro.rtl.verilog import emit_image

    app = _build_app(args.source, [])
    image = synthesize(app, assertions=args.assertions,
                       options=_options(args))
    os.makedirs(args.outdir, exist_ok=True)
    for name, verilog in emit_image(image).items():
        path = os.path.join(args.outdir, f"{name}.v")
        with open(path, "w") as fh:
            fh.write(verilog)
        print(f"wrote {path}")
    res = estimate_image(image)
    fmax = estimate_fmax(image, resources=res)
    lines = [
        f"assertion level: {args.assertions}",
        f"processes: {', '.join(sorted(image.compiled))}",
        f"comb ALUTs: {res.total.comb_aluts}",
        f"registers:  {res.total.registers}",
        f"BRAM bits:  {res.total.bram_bits}",
        f"interconnect: {res.total.interconnect}",
        f"Fmax: {fmax.fmax_mhz:.1f} MHz "
        f"(critical path {fmax.critical_path_ns:.2f} ns)",
    ]
    for name, cp in sorted(image.compiled.items()):
        for header, (latency, rate) in cp.pipeline_report().items():
            lines.append(
                f"pipeline {name}/{header}: latency {latency}, rate {rate}"
            )
    report_path = os.path.join(args.outdir, "report.txt")
    with open(report_path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    print(f"wrote {report_path}")
    print("\n".join(lines))
    return 0


def cmd_report(args) -> int:
    from repro.core.synth import synthesize
    from repro.platform.report import overhead_report

    app = _build_app(args.source, [])
    original = synthesize(app, assertions="none")
    asserted = synthesize(app, assertions=args.assertions,
                          options=_options(args))
    report = overhead_report(original, asserted)
    print(report.render(
        f"ASSERTION OVERHEAD ({os.path.basename(args.source)}, "
        f"{args.assertions})"
    ))
    return 0


def cmd_simulate(args) -> int:
    from repro.core.synth import synthesize
    from repro.platform.report import execution_summary
    from repro.runtime.hwexec import execute
    from repro.runtime.swsim import software_sim

    feed = [int(v, 0) for v in args.feed.split(",")] if args.feed else []
    app = _build_app(args.source, feed)
    sim = software_sim(app)
    print(f"software simulation: completed={sim.completed} "
          f"aborted={sim.aborted}")
    for name, values in sorted(sim.outputs.items()):
        print(f"  {name}: {values}")
    for line in sim.stderr:
        print(f"  stderr: {line}")

    image = synthesize(app, assertions=args.assertions,
                       options=_options(args))
    hw = execute(image, max_cycles=args.max_cycles)
    print(f"hardware execution:  completed={hw.completed} "
          f"reason={hw.reason} cycles={hw.cycles}")
    for name, values in sorted(hw.outputs.items()):
        print(f"  {name}: {values}")
    for line in hw.stderr:
        print(f"  stderr: {line}")
    for line in execution_summary(hw):
        print(f"  {line}")

    data_match = all(
        hw.outputs.get(k) == v for k, v in sim.outputs.items() if v
    )
    print(f"outputs match: {data_match}")
    return 0 if (hw.completed or hw.aborted) else 1


def _shard_arg(args):
    """--shard K/N -> ShardSpec (None when the flag is absent)."""
    if not getattr(args, "shard", None):
        return None
    from repro.lab.shard import ShardSpec

    return ShardSpec.parse(args.shard)


def _retry_arg(args):
    """--retries N -> RetryPolicy with N+1 total attempts (0 -> None)."""
    retries = getattr(args, "retries", 0)
    if not retries:
        return None
    from repro.lab.retry import RetryPolicy

    return RetryPolicy(max_attempts=retries + 1)


def cmd_campaign(args) -> int:
    from repro.core.synth import SynthesisOptions
    from repro.faults.campaign import (
        builtin_targets,
        campaign_summary,
        run_campaign,
    )

    if args.app not in builtin_targets():
        raise SystemExit(
            f"unknown --app {args.app!r}; have {sorted(builtin_targets())}"
        )
    levels = tuple(args.levels.split(","))
    for lv in levels:
        if lv not in ("none", "unoptimized", "optimized"):
            raise SystemExit(f"bad assertion level {lv!r} in --levels")
    result = run_campaign(
        args.app,
        levels=levels,
        seed=args.seed,
        count=args.count,
        nabort=args.nabort,
        options=SynthesisOptions(sim_backend=args.sim_backend),
        jobs=args.jobs,
        cache_root=args.cache,
        store_root=args.store,
        shard=_shard_arg(args),
        resume=not args.no_resume,
        retry=_retry_arg(args),
        timeout=args.timeout,
        batch_lanes=args.batch_lanes,
    )
    if args.json:
        import json as _json

        print(_json.dumps(campaign_summary(result), indent=2,
                          sort_keys=True))
        return 0 if not result.harness_errors else 1
    print(result.render())
    return 0


def _parse_app_token(token: str):
    """Parse one --apps token: ``loopback:4``, ``edge:16x8``,
    ``tripledes``, ``tripledes:SomeText`` or ``pipeline:N`` with optional
    per-stage edits ``pipeline:N@STAGE=DELTA[@STAGE=DELTA...]`` (the
    incremental-synthesis workload: an edit changes exactly one stage's
    IR, so only that stage resynthesizes)."""
    from repro.lab.sweep import AppSpec, SweepError

    kind, _, arg = token.partition(":")
    if kind == "loopback":
        return AppSpec.make("loopback", n=int(arg) if arg else 4)
    if kind == "pipeline":
        stages_text, *edit_texts = arg.split("@") if arg else ["3"]
        edits = []
        for et in edit_texts:
            stage, eq, delta = et.partition("=")
            if not eq:
                raise SystemExit(
                    f"--apps pipeline edit wants STAGE=DELTA, got {token!r}")
            edits.append((int(stage), int(delta)))
        params = {"stages": int(stages_text or 3)}
        if edits:
            params["edits"] = tuple(sorted(edits))
        return AppSpec.make("pipeline", **params)
    if kind == "edge":
        if arg:
            w, _, h = arg.partition("x")
            if not h:
                raise SystemExit(
                    f"--apps edge wants WIDTHxHEIGHT, got {token!r}"
                )
            return AppSpec.make("edge", width=int(w), height=int(h))
        return AppSpec.make("edge", width=16, height=8)
    if kind == "tripledes":
        return AppSpec.make("tripledes",
                            **({"text": arg} if arg else {}))
    raise SweepError(
        f"unknown app {kind!r}; have loopback[:N], edge[:WxH], "
        f"tripledes[:TEXT], pipeline[:N[@STAGE=DELTA...]]", code="RPR-W005")


def cmd_sweep(args) -> int:
    from repro.lab.sweep import SweepError, SweepSpec, run_sweep, sweep_summary

    try:
        apps = [_parse_app_token(tok)
                for tok in args.apps.split(",") if tok]
        spec = SweepSpec.cross(
            args.name,
            apps,
            levels=tuple(args.levels.split(",")),
            variants=tuple(args.variants.split(",")),
        )
    except SweepError as exc:
        raise SystemExit(str(exc)) from None
    try:
        result = run_sweep(
            spec,
            jobs=args.jobs,
            store_root=args.store,
            cache_root=args.cache,
            resume=not args.no_resume,
            timeout=args.timeout,
            shard=_shard_arg(args),
            retry=_retry_arg(args),
        )
    except KeyboardInterrupt:
        print("sweep interrupted; rerun the same command to resume",
              file=sys.stderr)
        return 130
    if args.json:
        import json as _json

        print(_json.dumps(sweep_summary(result), indent=2, sort_keys=True))
        return 0 if result.ok else 1
    print(result.render())
    print(f"results: {result.run.results_path}")
    print(f"manifest: {result.run.manifest_path}")
    return 0 if result.ok else 1


def cmd_difftest(args) -> int:
    from repro.difftest import (
        DifftestError,
        DifftestSpec,
        GenConfig,
        replay_seed_file,
        run_difftest_campaign,
    )

    if args.replay:
        try:
            report = replay_seed_file(args.replay,
                                      max_cycles=args.max_cycles,
                                      reduced=not args.original)
        except DifftestError as exc:
            raise SystemExit(str(exc)) from None
        if report.ok:
            print(f"{args.replay}: models agree "
                  f"({report.cm_cycles} cycles)")
            return 0
        print(f"{args.replay}: {report.divergence.describe()}")
        return 1

    lo, _, hi = args.seeds.partition(":")
    try:
        seeds = (int(lo), int(hi))
    except ValueError:
        raise SystemExit(f"--seeds wants LO:HI, got {args.seeds!r}") from None
    if seeds[0] >= seeds[1]:
        raise SystemExit(f"--seeds range {args.seeds!r} is empty")
    spec = DifftestSpec(
        name=args.name,
        seeds=seeds,
        gen=GenConfig(max_stmts=args.stmts),
        max_cycles=args.max_cycles,
        reduce=not args.no_reduce,
        sim_backend=args.sim_backend,
    )
    try:
        result = run_difftest_campaign(
            spec,
            jobs=args.jobs,
            store_root=args.store,
            cache_root=args.cache,
            resume=not args.no_resume,
            timeout=args.timeout,
            shard=_shard_arg(args),
            retry=_retry_arg(args),
        )
    except KeyboardInterrupt:
        print("difftest interrupted; rerun the same command to resume",
              file=sys.stderr)
        return 130
    print(result.render())
    print(f"results: {result.run.results_path}")
    print(f"manifest: {result.run.manifest_path}")
    for path in result.seed_files:
        print(f"reproducer: {path}")
    return 0 if result.ok else 1


def cmd_merge(args) -> int:
    from repro.lab.shard import merge_runs

    result = merge_runs(args.store, args.run, out_dir=args.out,
                        progress=sys.stderr)
    counts = ", ".join(f"{k}={v}" for k, v in sorted(result.counters.items()))
    print(f"merged run: {result.base_id} ({result.kind})")
    print(f"sources: {', '.join(result.sources)}")
    print(f"points: {len(result.records)} ({counts})")
    print(f"results: {result.run.results_path}")
    print(f"manifest: {result.run.manifest_path}")
    if result.matrix_path is not None:
        print(f"matrix: {result.matrix_path}")
        print()
        print(result.matrix_path.read_text(), end="")
    if result.corrupt:
        print(f"WARNING: {result.corrupt} torn/corrupt journal line(s) "
              "skipped while merging", file=sys.stderr)
    return 0


def cmd_bench(args) -> int:
    import json

    from repro.simc.bench import compare_bench, render_bench, run_bench

    if args.suite == "synth":
        from repro.lab.bench import render_synth_bench, run_synth_bench

        doc = run_synth_bench(quick=args.quick)
        print(render_synth_bench(doc))
    else:
        doc = run_bench(quick=args.quick)
        print(render_bench(doc))
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(doc, fh, indent=2)
            fh.write("\n")
        print(f"wrote {args.out}")
    if args.baseline:
        with open(args.baseline) as fh:
            baseline = json.load(fh)
        notes: list[str] = []
        problems = compare_bench(doc, baseline, threshold=args.threshold,
                                 notes=notes)
        for msg in notes:
            print(f"note: {msg}", file=sys.stderr)
        if problems:
            for msg in problems:
                print(f"REGRESSION: {msg}", file=sys.stderr)
            return 1
        print(f"baseline check passed ({args.baseline}, "
              f"threshold {args.threshold:.0%})")
    return 0


def _fabric_flags(p) -> None:
    """Campaign-fabric flags shared by sweep/campaign/difftest."""
    p.add_argument("--shard", default=None, metavar="K/N",
                   help="run only the points hashing into slice K of N "
                        "(own run directory; fold back with 'repro merge')")
    p.add_argument("--retries", type=int, default=0, metavar="N",
                   help="retry transiently-failing points up to N times "
                        "with exponential backoff")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="HLS of in-circuit ANSI-C assertions "
                    "(Curreri/Stitt/George, IPDPS 2010 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("source", help="dialect C file with one process")
        p.add_argument("--assertions", default="optimized",
                       choices=("none", "unoptimized", "optimized"))
        p.add_argument("--no-parallelize", action="store_true")
        p.add_argument("--no-replicate", action="store_true")
        p.add_argument("--no-share", action="store_true")
        p.add_argument("--multichecker", action="store_true",
                       help="round-robin shared checker (Sec. 3.3 extension)")
        p.add_argument("--sim-backend", default="compiled",
                       choices=("interp", "compiled"),
                       help="simulation backend: specialize schedules to "
                            "Python bytecode (compiled, default) or walk "
                            "them (interp)")

    p = sub.add_parser("compile", help="emit Verilog + report")
    common(p)
    p.add_argument("-o", "--outdir", default="build")
    p.set_defaults(func=cmd_compile)

    p = sub.add_parser(
        "synth",
        help="collect-mode diagnostics: report every error in one pass",
    )
    p.add_argument("source", nargs="?", default=None,
                   help="dialect C file with one process")
    p.add_argument("--assertions", default="optimized",
                   choices=("none", "unoptimized", "optimized"))
    p.add_argument("--no-parallelize", action="store_true")
    p.add_argument("--no-replicate", action="store_true")
    p.add_argument("--no-share", action="store_true")
    p.add_argument("--multichecker", action="store_true")
    p.add_argument("--sim-backend", default="compiled",
                   choices=("interp", "compiled"))
    p.add_argument("--feed", default="", help="comma-separated input words")
    p.add_argument("--color", action="store_true",
                   help="ANSI-colored diagnostics")
    p.add_argument("--json", action="store_true",
                   help="machine-readable diagnostics on stdout")
    p.add_argument("--bundle", default=None, metavar="DIR",
                   help="on failure, write a replayable bundle here")
    p.add_argument("--help-codes", action="store_true",
                   help="print the RPR-* error-code category table")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser(
        "replay",
        help="re-run a failure bundle; exit 0 iff it reproduces exactly",
    )
    p.add_argument("bundle", help="bundle directory (manifest.json inside)")
    p.add_argument("--color", action="store_true",
                   help="ANSI-colored diagnostics")
    p.add_argument("--json", action="store_true",
                   help="machine-readable comparison on stdout")
    p.set_defaults(func=cmd_replay)

    p = sub.add_parser("report", help="print the overhead table")
    common(p)
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("simulate", help="software sim + hardware execution")
    common(p)
    p.add_argument("--feed", default="", help="comma-separated input words")
    p.add_argument("--max-cycles", type=int, default=2_000_000)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser(
        "campaign",
        help="seeded fault-injection sweep with coverage matrix",
    )
    p.add_argument("--app", default="loopback",
                   help="campaign target: loopback, edge or tripledes")
    p.add_argument("--levels", default="none,optimized",
                   help="comma-separated assertion levels to sweep")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--count", type=int, default=8,
                   help="number of generated fault scenarios")
    p.add_argument("--nabort", action="store_true",
                   help="report-don't-halt mode with watchdog quarantine")
    p.add_argument("--jobs", type=int, default=1,
                   help="worker processes for the scenario grid")
    p.add_argument("--cache", default=None, metavar="DIR",
                   help="synthesis cache directory (per-process artifacts, "
                        "shared across levels, runs and workers)")
    p.add_argument("--sim-backend", default="compiled",
                   choices=("interp", "compiled"),
                   help="simulation backend for scenario execution")
    p.add_argument("--batch-lanes", type=int, default=1, metavar="N",
                   help="run the scenarios that share an image N per "
                        "call, one scalar run each")
    p.add_argument("--store", default=None, metavar="DIR",
                   help="journal cells into this resumable result store")
    p.add_argument("--timeout", type=float, default=None, metavar="SECONDS",
                   help="with --jobs > 1: timeout per worker task (one "
                        "chunk of --batch-lanes cells)")
    p.add_argument("--no-resume", action="store_true",
                   help="with --store: discard previous results")
    p.add_argument("--json", action="store_true",
                   help="print one JSON summary object (coverage matrix, "
                        "detection rates, outcome records) instead of "
                        "the table")
    _fabric_flags(p)
    p.set_defaults(func=cmd_campaign)

    p = sub.add_parser(
        "sweep",
        help="parallel, cached, resumable design-space sweep",
    )
    p.add_argument("--name", default="sweep", help="sweep name (run id prefix)")
    p.add_argument("--apps", default="loopback:4",
                   help="comma-separated: loopback[:N], edge[:WxH], "
                        "tripledes[:TEXT]")
    p.add_argument("--levels", default="none,optimized",
                   help="comma-separated assertion levels")
    p.add_argument("--variants", default="default",
                   help="comma-separated SynthesisOptions variants "
                        "(default, noshare, noreplicate, noparallelize, "
                        "multichecker)")
    p.add_argument("--jobs", type=int, default=1,
                   help="parallel worker processes")
    p.add_argument("--store", default="lab-runs", metavar="DIR",
                   help="resumable JSONL result store directory")
    p.add_argument("--cache", default=None, metavar="DIR",
                   help="content-addressed synthesis cache directory")
    p.add_argument("--timeout", type=float, default=None, metavar="SECONDS",
                   help="per-point timeout")
    p.add_argument("--no-resume", action="store_true",
                   help="discard previous results for this sweep")
    p.add_argument("--json", action="store_true",
                   help="print one JSON summary object (manifest + stats + "
                        "records) instead of the table")
    _fabric_flags(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser(
        "difftest",
        help="three-way differential fuzzing: interpreter vs cycle "
             "model vs RTL",
    )
    p.add_argument("--name", default="difftest",
                   help="campaign name (run id prefix)")
    p.add_argument("--seeds", default="0:50", metavar="LO:HI",
                   help="half-open seed range to fuzz")
    p.add_argument("--stmts", type=int, default=8,
                   help="max statements per generated program")
    p.add_argument("--max-cycles", type=int, default=200_000,
                   help="lockstep cycle budget per program")
    p.add_argument("--jobs", type=int, default=1,
                   help="parallel worker processes")
    p.add_argument("--store", default="lab-runs", metavar="DIR",
                   help="resumable JSONL result store directory")
    p.add_argument("--cache", default=None, metavar="DIR",
                   help="compilation cache directory")
    p.add_argument("--timeout", type=float, default=None, metavar="SECONDS",
                   help="per-seed timeout")
    p.add_argument("--no-resume", action="store_true",
                   help="discard previous results for this campaign")
    p.add_argument("--no-reduce", action="store_true",
                   help="skip reduction of diverging programs")
    p.add_argument("--replay", default=None, metavar="SEEDFILE",
                   help="re-run one saved seed file instead of a campaign")
    p.add_argument("--original", action="store_true",
                   help="with --replay: run the unreduced program")
    p.add_argument("--sim-backend", default="interp",
                   choices=("interp", "compiled"),
                   help="'compiled' adds the repro.simc compiled cycle "
                        "model as a strict lockstep leg and a "
                        "quiet-stretch leg")
    _fabric_flags(p)
    p.set_defaults(func=cmd_difftest)

    p = sub.add_parser(
        "merge",
        help="fold per-shard run directories into one canonical run",
    )
    p.add_argument("run", help="base run id, shard run id, or unique prefix")
    p.add_argument("--store", default="lab-runs", metavar="DIR",
                   help="result store holding the shard runs")
    p.add_argument("--out", default=None, metavar="DIR",
                   help="write the merged run here instead of "
                        "<store>/<base>.merged")
    p.set_defaults(func=cmd_merge)

    p = sub.add_parser(
        "bench",
        help="perf benches (simulation backends, incremental synthesis) "
             "with baseline gate",
    )
    p.add_argument("--suite", choices=("sim", "synth"), default="sim",
                   help="which bench suite to run: interp-vs-compiled "
                        "simulation (sim, default) or cold-vs-warm/edit "
                        "incremental synthesis (synth)")
    p.add_argument("--quick", action="store_true",
                   help="fewer timing repeats for the sim suite (same "
                        "workloads); the synth suite always times each "
                        "leg best of 3")
    p.add_argument("--out", default=None, metavar="JSON",
                   help="write the bench document to this file")
    p.add_argument("--baseline", default=None, metavar="JSON",
                   help="fail if any speedup regresses vs this baseline")
    p.add_argument("--threshold", type=float, default=0.30,
                   help="relative speedup loss that counts as a "
                        "regression (default 0.30)")
    p.set_defaults(func=cmd_bench)

    args = parser.parse_args(argv)
    from repro.errors import ReproError

    try:
        return args.func(args)
    except ReproError as exc:
        # a toolchain error is one coded line, never a traceback
        print(exc.diagnostic().one_line(), file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
