"""``pos`` command-line interface.

Mirrors the workflow of Appendix A: run the case-study experiment on a
chosen platform (with the progress bar the paper mentions), evaluate
the results into figures, publish the artifact bundle and website, and
inspect the testbed (nodes, images, topology, the Table 1 comparison).

Examples::

    pos run --platform vpos --results /tmp/results --duration 0.2
    pos evaluate --results /tmp/results/user/linux-router-forwarding-vpos/<ts>
    pos publish  --results <same path> --repo https://github.com/you/artifacts
    pos compare
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

from repro.casestudy import (
    PACKET_SIZES,
    POS_RATES,
    VPOS_RATES,
    build_environment,
    run_case_study,
)
from repro.comparison import format_table
from repro.core.errors import PosError
from repro.evaluation import load_experiment, plot_experiment
from repro.publication import publish

__all__ = ["main", "build_parser"]


def _progress_bar(done: int, total: int, width: int = 40) -> None:
    filled = int(width * done / total) if total else width
    bar = "#" * filled + "-" * (width - filled)
    sys.stdout.write(f"\r[{bar}] {done}/{total} runs")
    sys.stdout.flush()
    if done == total:
        sys.stdout.write("\n")


def _parse_int_list(text: str) -> List[int]:
    try:
        return [int(item) for item in text.split(",") if item.strip()]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers: {text!r}") from exc


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pos",
        description="plain orchestrating service — reproduction toolchain",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run the case-study experiment")
    run.add_argument("--platform", choices=("pos", "vpos"), default="vpos")
    run.add_argument("--results", required=True, help="result-store root directory")
    run.add_argument("--rates", type=_parse_int_list, default=None,
                     help="comma-separated offered rates in pps")
    run.add_argument("--sizes", type=_parse_int_list,
                     default=list(PACKET_SIZES), help="frame sizes in bytes")
    run.add_argument("--duration", type=float, default=0.3,
                     help="measurement duration per run, simulated seconds")
    run.add_argument("--max-runs", type=int, default=None)
    run.add_argument("--jobs", type=int, default=None, metavar="N",
                     help="run the measurement cross product on N parallel "
                          "worker processes (default: the POS_JOBS "
                          "environment variable, else 1); the result tree "
                          "is byte-identical for any N")
    run.add_argument("--agents", type=int, default=None, metavar="N",
                     help="fan the runs out to N node-agent daemons on the "
                          "fault-tolerant distributed plane (default: the "
                          "POS_AGENTS environment variable, else off); "
                          "mutually exclusive with --jobs > 1; the result "
                          "tree is byte-identical for any N and any agent "
                          "crash schedule")
    run.add_argument("--transport", choices=("loopback", "pipe"),
                     default="loopback",
                     help="distributed-plane transport: deterministic "
                          "in-process bus, or real agent subprocesses "
                          "behind pipes (with --agents)")
    run.add_argument("--dist-fault-plan", metavar="FILE", default=None,
                     help="YAML fault plan injecting seeded chaos into the "
                          "distributed plane only: agent kills and message "
                          "drop/duplicate/delay (kinds: agent, transport)")
    run.add_argument("--epoch", type=float, default=None, metavar="SECONDS",
                     help="pin the result-store clock to a fixed epoch so "
                          "two executions land in the same timestamp folder "
                          "(byte-identity checks across invocations)")
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--user", default="user")
    run.add_argument("--script-style", choices=("python", "shell"),
                     default="python",
                     help="measurement-script form (shell is exportable)")
    run.add_argument("--experiment-dir", default=None,
                     help="run a file-defined experiment folder instead of "
                          "the built-in case study")
    run.add_argument("--on-error", choices=("abort", "continue", "recover"),
                     default="abort",
                     help="what a failed measurement run does: stop the "
                          "experiment, record and move on, or power-cycle "
                          "the nodes and retry the run once")
    run.add_argument("--resume", metavar="RESULT_DIR", default=None,
                     help="continue a killed execution from its run journal; "
                          "completed runs are adopted, the rest re-executed")
    run.add_argument("--fault-plan", metavar="FILE", default=None,
                     help="YAML fault plan injecting deterministic faults "
                          "into the power/transport layers (testing R3)")
    run.add_argument("--cache", metavar="DIR", default=None,
                     help="content-addressed run cache directory (default: "
                          "the POS_RUN_CACHE_DIR environment variable, else "
                          "off); repeated (scenario, assignment, seed) "
                          "points are served from it with zero simulator "
                          "events and byte-identical artifacts")

    export = sub.add_parser(
        "export", help="write the case study as a publishable artifact folder"
    )
    export.add_argument("--output", required=True, help="target directory")
    export.add_argument("--platform", choices=("pos", "vpos"), default="vpos")
    export.add_argument("--rates", type=_parse_int_list, default=None)
    export.add_argument("--sizes", type=_parse_int_list,
                        default=list(PACKET_SIZES))
    export.add_argument("--duration", type=float, default=0.3)

    evaluate = sub.add_parser("evaluate", help="generate figures from results")
    evaluate.add_argument("--results", required=True,
                          help="one experiment's timestamp folder")
    evaluate.add_argument("--formats", default="svg,tex,pdf")

    pub = sub.add_parser("publish", help="plots + website + release archive")
    pub.add_argument("--results", required=True,
                     help="one experiment's timestamp folder")
    pub.add_argument("--repo", default=None, help="repository URL to reference")

    nodes = sub.add_parser("nodes", help="list the testbed's nodes")
    nodes.add_argument("--platform", choices=("pos", "vpos"), default="pos")

    images = sub.add_parser("images", help="list registered live images")
    images.add_argument("--platform", choices=("pos", "vpos"), default="pos")

    topology = sub.add_parser("topology", help="render the testbed topology (SVG)")
    topology.add_argument("--platform", choices=("pos", "vpos"), default="pos")
    topology.add_argument("--output", required=True, help="output .svg path")

    report = sub.add_parser(
        "report",
        help="per-run provenance table reconstructed from the artifacts "
             "(journal, trace.jsonl, telemetry.json) alone",
    )
    report.add_argument("--results", required=True,
                        help="one experiment's timestamp folder")
    report.add_argument("--validate", action="store_true",
                        help="also validate the telemetry artifacts against "
                             "the checked-in JSON schemas")

    trace = sub.add_parser(
        "trace",
        help="critical-path profile of an execution: the fleet DAG "
             "derived from trace.jsonl, pump timings from dispatch.jsonl; "
             "phase breakdown, per-agent utilization, slowest runs, "
             "cache savings",
    )
    trace.add_argument(
        "results",
        help="an experiment's timestamp folder or a campaign folder",
    )
    trace.add_argument("--top", type=int, default=5,
                       help="how many slowest runs to list (default 5)")
    trace.add_argument("--json", action="store_true",
                       help="emit the raw profile as JSON instead of text")

    status = sub.add_parser(
        "status",
        help="one-shot progress and node-health view of an experiment "
             "folder, reconstructed from the flushed artifacts alone",
    )
    status.add_argument("results", help="one experiment's timestamp folder")

    watch = sub.add_parser(
        "watch",
        help="follow an experiment folder while it executes (read-only; "
             "safe to run next to a parallel --jobs N execution)",
    )
    watch.add_argument("results", help="one experiment's timestamp folder")
    watch.add_argument("--interval", type=float, default=2.0,
                       help="seconds between updates (default 2)")
    watch.add_argument("--max-updates", type=int, default=None,
                       help="stop after N renders even if incomplete")

    campaign = sub.add_parser(
        "campaign",
        help="multi-tenant experiment campaigns over one shared node pool",
    )
    campaign_sub = campaign.add_subparsers(dest="campaign_command", required=True)
    campaign_run = campaign_sub.add_parser(
        "run",
        help="admit and execute a campaign file against a simulated pool; "
             "artifacts are byte-identical for any --jobs N and across "
             "crash + --resume",
    )
    campaign_run.add_argument("file", help="campaign YAML file")
    campaign_run.add_argument("--results", required=True,
                              help="campaign directory (created if missing)")
    campaign_run.add_argument("--jobs", type=int, default=None, metavar="N",
                              help="run up to N experiments concurrently "
                                   "(default: POS_JOBS, else 1)")
    campaign_run.add_argument("--agents", type=int, default=None, metavar="N",
                              help="execute each experiment's runs on N "
                                   "loopback node agents (the distributed "
                                   "plane; default: POS_AGENTS, else off)")
    campaign_run.add_argument("--resume", action="store_true",
                              help="continue a killed campaign from its "
                                   "journal; finished experiments are "
                                   "adopted, the rest re-run or resumed")
    campaign_status = campaign_sub.add_parser(
        "status",
        help="one-shot admission/progress view of a campaign directory, "
             "reconstructed from the flushed artifacts alone",
    )
    campaign_status.add_argument("results", help="campaign directory")

    study = sub.add_parser(
        "study",
        help="replicated factorial studies: run the same design N times "
             "with derived seeds, evaluate main effects and cross-"
             "replication consistency, audit and repair result trees",
    )
    study_sub = study.add_subparsers(dest="study_command", required=True)
    study_run = study_sub.add_parser(
        "run",
        help="expand a study file into N replicated campaigns and execute "
             "them; artifacts are byte-identical for any --jobs/--agents "
             "and across crash + --resume",
    )
    study_run.add_argument("file", help="study YAML file")
    study_run.add_argument("--results", required=True,
                           help="study directory (created if missing)")
    study_run.add_argument("--jobs", type=int, default=None, metavar="N",
                           help="run up to N experiments concurrently "
                                "within each replication campaign "
                                "(default: POS_JOBS, else 1)")
    study_run.add_argument("--agents", type=int, default=None, metavar="N",
                           help="execute each experiment's runs on N "
                                "loopback node agents (default: "
                                "POS_AGENTS, else off)")
    study_run.add_argument("--resume", action="store_true",
                           help="continue a killed study from study.jsonl; "
                                "finished replications are adopted, the "
                                "rest re-run or resumed")
    study_audit = study_sub.add_parser(
        "audit",
        help="validate a study tree against its expanded design and the "
             "checked-in schemas; exits non-zero listing every hole "
             "(missing runs, torn journals, stale aggregates)",
    )
    study_audit.add_argument("results", help="study directory")
    study_audit.add_argument("--json", action="store_true",
                             help="emit the machine-readable report as "
                                  "JSON instead of text")
    study_repair = study_sub.add_parser(
        "repair",
        help="re-execute exactly the holes an audit finds, leaving every "
             "intact run byte-identical, then re-audit",
    )
    study_repair.add_argument("results", help="study directory")
    study_repair.add_argument("--jobs", type=int, default=None, metavar="N")
    study_repair.add_argument("--agents", type=int, default=None,
                              metavar="N")

    agents = sub.add_parser(
        "agents",
        help="inspect the distributed execution plane of an experiment",
    )
    agents_sub = agents.add_subparsers(dest="agents_command", required=True)
    agents_status = agents_sub.add_parser(
        "status",
        help="per-agent fleet report (spawns, deliveries, re-dispatches, "
             "deaths, quarantines) folded from the dispatch.jsonl "
             "evidence sidecar",
    )
    agents_status.add_argument(
        "results",
        help="an experiment's timestamp folder (or any directory above it)",
    )

    cache = sub.add_parser(
        "cache",
        help="inspect and maintain a content-addressed run cache directory",
    )
    cache_sub = cache.add_subparsers(dest="cache_command", required=True)
    cache_ls = cache_sub.add_parser(
        "ls", help="list cached run outcomes with their provenance"
    )
    cache_ls.add_argument("--cache", required=True, metavar="DIR",
                          help="run cache directory")
    cache_verify = cache_sub.add_parser(
        "verify",
        help="hash-check every cached outcome against its manifest",
    )
    cache_verify.add_argument("--cache", required=True, metavar="DIR",
                              help="run cache directory")
    cache_gc = cache_sub.add_parser(
        "gc",
        help="remove corrupt entries and entries from older code epochs",
    )
    cache_gc.add_argument("--cache", required=True, metavar="DIR",
                          help="run cache directory")

    diff = sub.add_parser(
        "diff",
        help="structured comparison of two experiment result trees: "
             "metrics joined run by run with robust effect sizes, "
             "health/fault/retry deltas, the sim-clock phase breakdown, "
             "and every delta attributed to a reproducibility-"
             "fingerprint change or flagged unexplained",
    )
    diff.add_argument("a", help="first experiment timestamp folder")
    diff.add_argument("b", help="second experiment timestamp folder")
    diff.add_argument("--tolerance", type=float, default=0.0,
                      help="relative change below which a metric pair is "
                           "equal (default 0: exact agreement expected)")
    diff.add_argument("--top", type=int, default=10,
                      help="how many per-run deltas to list (default 10)")
    diff.add_argument("--json", action="store_true",
                      help="emit the raw diff as JSON instead of text")
    diff.add_argument("--save", action="store_true",
                      help="also write the diff as diff.json into B "
                           "(picked up by the published dashboard)")

    doctor = sub.add_parser(
        "doctor",
        help="automated diagnosis of one experiment tree: journal, "
             "telemetry, health ledger, and dispatch/cache evidence "
             "folded into ranked findings with evidence pointers",
    )
    doctor.add_argument("results", help="one experiment's timestamp folder")
    doctor.add_argument("--json", action="store_true",
                        help="emit the raw diagnosis as JSON instead of text")
    doctor.add_argument("--save", action="store_true",
                        help="also write the diagnosis as doctor.json into "
                             "the folder")

    perf = sub.add_parser(
        "perf",
        help="append-only performance history over benchmark snapshots "
             "with deterministic regression and change-point detection",
    )
    perf_sub = perf.add_subparsers(dest="perf_command", required=True)
    perf_record = perf_sub.add_parser(
        "record",
        help="flatten BENCH_*.json snapshots into seq-numbered records "
             "appended to the history ledger",
    )
    perf_record.add_argument("benches", nargs="+", metavar="BENCH_JSON",
                             help="benchmark snapshot file(s)")
    perf_record.add_argument("--history", required=True, metavar="DIR",
                             help="history directory (holds history.jsonl)")
    perf_trend = perf_sub.add_parser(
        "trend",
        help="per-metric series report: newest point vs robust baseline, "
             "level-shift localization; --check exits 1 on regression",
    )
    perf_trend.add_argument("--history", required=True, metavar="DIR",
                            help="history directory (holds history.jsonl)")
    perf_trend.add_argument("--threshold", type=float, default=None,
                            help="relative regression threshold "
                                 "(default 0.5)")
    perf_trend.add_argument("--json", action="store_true",
                            help="emit the raw report as JSON")
    perf_trend.add_argument("--verbose", action="store_true",
                            help="list every directed series, not only "
                                 "regressions and shifts")
    perf_trend.add_argument("--check", action="store_true",
                            help="exit non-zero when any regression is "
                                 "detected (the CI gate)")

    sub.add_parser("compare", help="print the testbed comparison (Table 1)")

    check = sub.add_parser(
        "check-replication",
        help="compare two result folders run by run (repeatability check)",
    )
    check.add_argument("--original", required=True)
    check.add_argument("--rerun", required=True)
    check.add_argument("--tolerance", type=float, default=0.05)
    return parser


def _cmd_run(args: argparse.Namespace) -> int:
    if args.experiment_dir is not None:
        return _run_experiment_dir(args)
    rates = args.rates
    if rates is None:
        rates = POS_RATES if args.platform == "pos" else VPOS_RATES
    fault_plan = None
    dist_fault_plan = None
    if args.fault_plan is not None or args.dist_fault_plan is not None:
        from repro.faults.plan import load_fault_plan

        if args.fault_plan is not None:
            fault_plan = load_fault_plan(args.fault_plan)
        if args.dist_fault_plan is not None:
            dist_fault_plan = load_fault_plan(args.dist_fault_plan)
    epoch = args.epoch
    handle = run_case_study(
        args.platform,
        args.results,
        rates=rates,
        sizes=tuple(args.sizes),
        duration_s=args.duration,
        seed=args.seed,
        user=args.user,
        max_runs=args.max_runs,
        clock=(lambda: epoch) if epoch is not None else None,
        progress=_progress_bar,
        script_style=args.script_style,
        on_error=args.on_error,
        fault_plan=fault_plan,
        resume_path=args.resume,
        jobs=args.jobs,
        agents=args.agents,
        transport=args.transport,
        dist_fault_plan=dist_fault_plan,
        cache_dir=args.cache,
    )
    print(f"results: {handle.result_path}")
    print(f"runs completed: {handle.completed_runs}, failed: {handle.failed_runs}")
    if handle.skipped_runs:
        print(f"runs skipped: {handle.skipped_runs}")
    for node, reason in sorted(handle.quarantined.items()):
        print(f"quarantined: {node} ({reason})")
    return 0


def _run_experiment_dir(args: argparse.Namespace) -> int:
    from repro.core.expdir import load_experiment_dir

    experiment = load_experiment_dir(args.experiment_dir)
    fault_plan = None
    if args.fault_plan is not None:
        from repro.faults.plan import load_fault_plan

        fault_plan = load_fault_plan(args.fault_plan)
    if args.agents is not None and args.agents > 0:
        raise PosError(
            "--agents needs a picklable worker-world recipe and is only "
            "available for the built-in case study (drop --experiment-dir)"
        )
    env = build_environment(
        args.platform, args.results, seed=args.seed, progress=_progress_bar,
        fault_plan=fault_plan,
    )
    try:
        if args.resume is not None:
            handle = env.controller.resume(
                experiment,
                args.resume,
                user=args.user,
                on_error=args.on_error,
                max_runs=args.max_runs,
                setup_context_extra={"setup": env.setup},
                jobs=args.jobs,
            )
        else:
            handle = env.controller.run(
                experiment,
                user=args.user,
                on_error=args.on_error,
                max_runs=args.max_runs,
                setup_context_extra={"setup": env.setup},
                jobs=args.jobs,
            )
    finally:
        if env.setup.hypervisor is not None:
            env.setup.hypervisor.stop()
    print(f"results: {handle.result_path}")
    print(f"runs completed: {handle.completed_runs}, failed: {handle.failed_runs}")
    return 0


def _cmd_export(args: argparse.Namespace) -> int:
    from repro.casestudy import build_case_study_experiment
    from repro.core.expdir import write_experiment_dir

    experiment = build_case_study_experiment(
        platform=args.platform,
        rates=args.rates,
        sizes=tuple(args.sizes),
        duration_s=args.duration,
        script_style="shell",
    )
    written = write_experiment_dir(experiment, args.output)
    for path in written:
        print(path)
    return 0


def _cmd_evaluate(args: argparse.Namespace) -> int:
    results = load_experiment(args.results)
    formats = tuple(fmt.strip() for fmt in args.formats.split(",") if fmt.strip())
    written = plot_experiment(results, formats=formats)
    for path in written:
        print(path)
    return 0


def _cmd_publish(args: argparse.Namespace) -> int:
    report = publish(args.results, repository_url=args.repo)
    print(f"figures: {len(report.figures)}")
    print(f"manifest: {report.manifest_path}")
    for path in report.website_files:
        print(f"website: {path}")
    print(f"archive: {report.archive_path}")
    return 0


def _environment(platform: str):
    import tempfile

    return build_environment(platform, tempfile.mkdtemp(prefix="pos-cli-"))


def _cmd_nodes(args: argparse.Namespace) -> int:
    env = _environment(args.platform)
    for name in sorted(env.setup.nodes):
        node = env.setup.nodes[name]
        host = node.host
        print(
            f"{name:10s} cpu={host.cpu_model!r} cores={host.cores} "
            f"mem={host.memory_gb}GiB power={node.power.protocol} "
            f"transport={node.transport.protocol}"
        )
    return 0


def _cmd_images(args: argparse.Namespace) -> int:
    env = _environment(args.platform)
    registry = env.setup.images
    for name in registry.names():
        for version in registry.versions(name):
            spec = registry.resolve(name, version)
            print(f"{name}@{version} kernel={spec.kernel}")
    return 0


def _cmd_topology(args: argparse.Namespace) -> int:
    env = _environment(args.platform)
    svg = env.setup.topology.to_svg()
    directory = os.path.dirname(args.output)
    if directory:
        os.makedirs(directory, exist_ok=True)
    with open(args.output, "w", encoding="utf-8") as handle:
        handle.write(svg)
    print(args.output)
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.telemetry.report import render_report

    print(render_report(args.results), end="")
    if args.validate:
        from repro.telemetry.schema import SchemaError, validate_experiment

        try:
            validated = validate_experiment(args.results)
        except SchemaError as exc:
            print(f"schema violation: {exc}", file=sys.stderr)
            return 1
        print(f"schemas: {len(validated)} artifact(s) valid")
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    import json as _json

    from repro.campaign.admission import ADMISSION_NAME
    from repro.telemetry.criticalpath import (
        analyze,
        analyze_campaign,
        render_analysis,
        render_campaign_analysis,
    )

    if os.path.isfile(os.path.join(args.results, ADMISSION_NAME)):
        analysis = analyze_campaign(args.results)
        rendered = render_campaign_analysis(analysis, top=args.top)
    elif os.path.isdir(os.path.join(args.results, "experiments")):
        # Campaign-shaped but the admission ledger is gone (pruned, or
        # the planner crashed before its first append): descending into
        # the first experiment's trace would silently mis-scope the
        # profile, so refuse with a diagnosis instead.
        from repro.telemetry.criticalpath import TraceError

        raise TraceError(
            f"{args.results} looks like a campaign folder (has "
            f"experiments/) but carries no {ADMISSION_NAME}; profile a "
            f"single experiment folder below experiments/ instead"
        )
    else:
        analysis = analyze(args.results)
        rendered = render_analysis(analysis, top=args.top)
    if args.json:
        print(_json.dumps(analysis, sort_keys=True, indent=2))
    else:
        print(rendered, end="")
    return 0


def _cmd_status(args: argparse.Namespace) -> int:
    from repro.telemetry.live import render_status

    print(render_status(args.results), end="")
    return 0


def _cmd_watch(args: argparse.Namespace) -> int:
    from repro.telemetry.live import watch

    return watch(
        args.results,
        interval_s=args.interval,
        max_updates=args.max_updates,
    )


def _cmd_agents(args: argparse.Namespace) -> int:
    from repro.dist.report import agents_status, format_agents_status

    print(format_agents_status(agents_status(args.results)))
    return 0


def _cmd_campaign(args: argparse.Namespace) -> int:
    from repro.campaign import campaign_status, run_campaign

    if args.campaign_command == "status":
        print(campaign_status(args.results), end="")
        return 0
    result = run_campaign(
        args.file,
        args.results,
        jobs=args.jobs,
        resume=args.resume,
        progress=_progress_bar,
        agents=args.agents,
    )
    print(f"campaign: {result.path}")
    print(
        f"experiments completed: {result.completed_experiments}, "
        f"failed: {result.failed_experiments}, rejected: {result.rejected}"
    )
    return 0 if result.ok else 1


def _cmd_study(args: argparse.Namespace) -> int:
    import json as _json

    from repro.study import (
        audit_study,
        load_study_file,
        render_audit,
        render_study,
        repair_study,
        run_study,
    )

    if args.study_command == "audit":
        report = audit_study(args.results)
        if args.json:
            print(_json.dumps(report, sort_keys=True, indent=2))
        else:
            print(render_audit(report), end="")
        return 0 if report["complete"] else 1
    if args.study_command == "repair":
        outcome = repair_study(
            args.results, jobs=args.jobs, agents=args.agents
        )
        if outcome["repaired"]:
            for hole in outcome["repaired"]:
                print(f"repaired: {hole['kind']} (rep {hole['replication']})")
        else:
            print("nothing to repair: the tree matches its design")
        print(f"study: {args.results}")
        return 0
    result = run_study(
        load_study_file(args.file),
        args.results,
        jobs=args.jobs,
        agents=args.agents,
        resume=args.resume,
        progress=_progress_bar,
    )
    print(f"study: {result.path}")
    print(
        f"replications completed: {result.completed_replications}, "
        f"failed: {result.failed_replications}"
    )
    if result.ok:
        with open(
            os.path.join(result.path, "study.json"), "r", encoding="utf-8"
        ) as handle:
            print(render_study(_json.load(handle)), end="")
    return 0 if result.ok else 1


def _cmd_cache(args: argparse.Namespace) -> int:
    from repro.cache import RunCache

    cache = RunCache(args.cache)
    if args.cache_command == "ls":
        count = 0
        for entry in cache.entries():
            manifest = entry.manifest
            loop = manifest.get("loop", {})
            loop_text = " ".join(
                f"{key}={loop[key]}" for key in sorted(loop)
            ) or "-"
            scope = manifest.get("scope", {})
            print(
                f"{entry.key[:12]}  epoch={manifest.get('code_epoch', '?')} "
                f"seed={scope.get('seed', '?')} "
                f"run={manifest.get('index', '?')} {loop_text}"
            )
            count += 1
        print(f"{count} cached run(s)")
        return 0
    if args.cache_command == "verify":
        report = cache.verify()
        for key in report["corrupt"]:
            print(f"corrupt: {key}")
        print(
            f"{len(report['ok'])} ok, {len(report['corrupt'])} corrupt"
        )
        return 0 if not report["corrupt"] else 1
    result = cache.gc()
    for key in result["removed"]:
        print(f"removed: {key}")
    print(f"{len(result['removed'])} removed, {len(result['kept'])} kept")
    return 0


def _cmd_diff(args: argparse.Namespace) -> int:
    import json as _json

    from repro.telemetry.diff import DIFF_NAME, diff_experiments, render_diff

    diff = diff_experiments(args.a, args.b, tolerance=args.tolerance)
    if args.save:
        target = os.path.join(args.b, DIFF_NAME)
        with open(target, "w", encoding="utf-8") as handle:
            _json.dump(diff, handle, sort_keys=True, indent=2)
            handle.write("\n")
        print(f"saved: {target}", file=sys.stderr)
    if args.json:
        print(_json.dumps(diff, sort_keys=True, indent=2))
    else:
        print(render_diff(diff, top=args.top), end="")
    return 0 if diff["attribution"]["unexplained"] == 0 else 1


def _cmd_doctor(args: argparse.Namespace) -> int:
    import json as _json

    from repro.telemetry.doctor import DOCTOR_NAME, diagnose, render_diagnosis

    diagnosis = diagnose(args.results)
    if args.save:
        target = os.path.join(args.results, DOCTOR_NAME)
        with open(target, "w", encoding="utf-8") as handle:
            _json.dump(diagnosis, handle, sort_keys=True, indent=2)
            handle.write("\n")
        print(f"saved: {target}", file=sys.stderr)
    if args.json:
        print(_json.dumps(diagnosis, sort_keys=True, indent=2))
    else:
        print(render_diagnosis(diagnosis), end="")
    return 0 if diagnosis["verdict"] != "unhealthy" else 1


def _cmd_perf(args: argparse.Namespace) -> int:
    import json as _json

    from repro.telemetry.perfhistory import (
        DEFAULT_THRESHOLD,
        load_history,
        record_bench,
        render_trend,
        trend,
    )

    if args.perf_command == "record":
        total = 0
        for bench_path in args.benches:
            records = record_bench(args.history, bench_path)
            total += len(records)
            print(f"{bench_path}: {len(records)} record(s)")
        print(f"recorded {total} record(s) into {args.history}")
        return 0
    threshold = (
        args.threshold if args.threshold is not None else DEFAULT_THRESHOLD
    )
    report = trend(load_history(args.history), threshold=threshold)
    if args.json:
        print(_json.dumps(report, sort_keys=True, indent=2))
    else:
        print(render_trend(report, verbose=args.verbose), end="")
    if args.check and report["regressions"]:
        return 1
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    print(format_table(), end="")
    return 0


def _cmd_check_replication(args: argparse.Namespace) -> int:
    from repro.evaluation.replication import compare_experiments

    report = compare_experiments(
        load_experiment(args.original),
        load_experiment(args.rerun),
        tolerance=args.tolerance,
    )
    print(report.summary(), end="")
    return 0 if report.repeats else 1


_COMMANDS = {
    "run": _cmd_run,
    "export": _cmd_export,
    "evaluate": _cmd_evaluate,
    "publish": _cmd_publish,
    "nodes": _cmd_nodes,
    "images": _cmd_images,
    "topology": _cmd_topology,
    "report": _cmd_report,
    "trace": _cmd_trace,
    "status": _cmd_status,
    "watch": _cmd_watch,
    "agents": _cmd_agents,
    "campaign": _cmd_campaign,
    "study": _cmd_study,
    "cache": _cmd_cache,
    "diff": _cmd_diff,
    "doctor": _cmd_doctor,
    "perf": _cmd_perf,
    "compare": _cmd_compare,
    "check-replication": _cmd_check_replication,
}


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except PosError as exc:
        print(f"pos: error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # Downstream pager/grep closed the pipe (e.g. `pos agents
        # status | grep -q ...`); that is their prerogative, not an
        # error.  Detach stdout so interpreter shutdown does not try to
        # flush into the dead pipe and print a spurious traceback.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0


if __name__ == "__main__":
    sys.exit(main())
