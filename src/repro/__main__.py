"""``python -m repro`` — the command-line front end.

Three subcommands:

* ``demo`` (the default) — a compact live demo of the mediated system:
  builds the KIND scenario (including the ANATOM atlas source with its
  domain-map refinement), runs the paper's Section 5 query, and prints
  a provenance trace for one mediated fact; ``--trace`` appends the
  medtrace span tree, and ``--trace-json PATH`` writes the JSON
  document;
* ``lint`` — medlint, the whole-deployment static analyzer: lints the
  deployments built by the given Python scripts (or the shipped KIND
  scenario when no target is given) and exits non-zero if any
  error-severity diagnostic is reported;
* ``trace`` — medtrace: runs the given deployment scripts (or the
  shipped KIND scenario plus its Section 5 query) under an installed
  tracer and prints the span tree and metrics (``--json`` for the
  machine-readable document, ``--why FACT`` for a stratum/round-
  annotated derivation tree of one mediated fact);
* ``chaos`` — medguard: deterministic fault-injection runs.  With no
  target, the Section 5 scenario runs over the XML wire while a seeded
  schedule injects a transient fault and kills the retrieval source
  mid-plan; the run must yield a *degraded* answer satisfying the
  degraded-answer contract, byte-identically across reruns of the same
  seed.  With targets, each deployment script runs with every wrapper
  misbehaving on a seeded recoverable schedule and must still
  complete, all raising faults absorbed by the resilience layer;
* ``cache`` — medcache: ``stats`` prints the deterministic cache
  counters of a cold+warm Section 5 double run, ``warm``/``clear``
  demonstrate priming and flushing, and ``verify`` checks the
  cache-correctness contract (second run byte-identical with zero
  query wire bytes) on the scenario or on deployment scripts.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import sys


def demo(args=None):
    from repro import obs
    from repro.neuro import build_scenario, section5_query

    tracing = args is not None and (args.trace or args.trace_json)
    tracer = obs.install(obs.Tracer("repro-demo")) if tracing else None
    try:
        print("repro: Model-Based Mediation with Domain Maps (ICDE 2001)")
        print("=" * 64)

        scenario = build_scenario(include_anatom_source=True)
        mediator = scenario.mediator
        print("sources registered over the XML wire:")
        for message, size in mediator.wire_log:
            print("  %-24s %7d bytes" % (message, size))
        print(
            "domain map: %d concepts (incl. %s from ANATOM's refinement)"
            % (
                len(mediator.dm.concepts),
                ", ".join(
                    c for c in ("Basket_Cell", "Stellate_Cell", "Golgi_Cell")
                    if c in mediator.dm.concepts
                ),
            )
        )

        print("\nSection 5 query: calcium-binding proteins in neurons")
        print("receiving signals from parallel fibers in rat brains")
        plan, context = mediator.correlate(section5_query())
        print(plan.describe())
        print("\nanswers (protein, cumulative amount below %s):" % context.root)
        for protein, distribution in context.answers:
            print("  %-22s %8.3f" % (protein, distribution.total()))

        obj = sorted(
            row["X"]
            for row in mediator.ask("X : 'Compartment'")
            if str(row["X"]).startswith("NCMIR")
        )[0]
        print("\nwhy is %s a Compartment?" % obj)
        print(mediator.explain("'%s' : 'Compartment'" % obj).format(indent=1))
    finally:
        if tracing:
            obs.uninstall()
    if tracer is not None:
        if args.trace:
            print("\n" + obs.render_tree(tracer))
        if args.trace_json:
            with open(args.trace_json, "w") as handle:
                handle.write(obs.to_json(tracer) + "\n")
            print("\ntrace written to %s" % args.trace_json)
    return 0


def lint(args):
    from repro.analysis import analyze, lint_path

    reports = []
    if args.targets:
        for target in args.targets:
            reports.append(lint_path(target))
    else:
        from repro.neuro import build_scenario

        scenario = build_scenario(include_anatom_source=True)
        reports.append(analyze(scenario.mediator))

    include_info = not args.no_info
    if args.json:
        payload = [report.as_dict(include_info=include_info) for report in reports]
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for report in reports:
            print(report.format_text(include_info=include_info, explain=args.explain))
    return 1 if any(report.has_errors for report in reports) else 0


def trace(args):
    """medtrace: run deployments under a tracer, print spans + metrics."""
    from repro import obs

    tracer = obs.install(obs.Tracer("repro-trace"))
    why_output = None
    try:
        if args.targets:
            import runpy

            for target in args.targets:
                with tracer.span("script", path=target):
                    # the script's own printing is not the trace;
                    # silence it unless asked to keep it
                    if args.keep_output:
                        runpy.run_path(target, run_name="__main__")
                    else:
                        sink = io.StringIO()
                        with contextlib.redirect_stdout(sink):
                            runpy.run_path(target, run_name="__main__")
        else:
            from repro.neuro import build_scenario, section5_query

            scenario = build_scenario(include_anatom_source=True)
            mediator = scenario.mediator
            mediator.correlate(section5_query())
            if args.why:
                derivation = mediator.explain(args.why)
                if derivation is None:
                    why_output = "no derivation: %r is not in the model" % args.why
                else:
                    why_output = derivation.format()
    finally:
        obs.uninstall()

    if args.json:
        rendered = obs.to_json(tracer, mask_timings=args.mask_timings)
    else:
        rendered = obs.render_tree(tracer, mask_timings=args.mask_timings)
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(rendered + "\n")
        print("trace written to %s" % args.out)
    else:
        print(rendered)
    if why_output is not None:
        print("\nwhy %s ?" % args.why)
        print(why_output)
    return 0


def chaos(args):
    """medguard: seeded chaos runs checking the degraded-answer contract."""
    from repro.resilience.chaos import (
        ContractCheck,
        run_chaos_scenario,
        run_chaos_script,
    )

    reports = []
    if args.targets:
        for target in args.targets:
            reports.append(
                run_chaos_script(
                    target,
                    args.seed,
                    rate=args.rate,
                    keep_output=args.keep_output,
                )
            )
    else:
        report = run_chaos_scenario(args.seed)
        # the contract demands byte-for-byte reproducibility: the same
        # seed must produce the identical report
        rerun = run_chaos_scenario(args.seed)
        report.checks.append(
            ContractCheck(
                "reproducible",
                report.format() == rerun.format(),
                "re-running seed=%s reproduces the report byte-for-byte"
                % args.seed,
            )
        )
        reports.append(report)

    if args.json:
        payload = [report.as_dict() for report in reports]
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for index, report in enumerate(reports):
            if index:
                print()
            print(report.format())
    return 0 if all(report.ok for report in reports) else 1


def cache_cmd(args):
    """medcache: stats / warm / clear / verify."""
    from repro import obs
    from repro.cache import AnswerCache
    from repro.neuro import build_scenario, section5_query

    if args.action == "verify":
        from repro.cache.verify import verify_scenario, verify_script

        reports = (
            [verify_script(target) for target in args.targets]
            if args.targets
            else [verify_scenario()]
        )
        if args.json:
            print(
                json.dumps(
                    [report.as_dict() for report in reports],
                    indent=2,
                    sort_keys=True,
                )
            )
        else:
            for index, report in enumerate(reports):
                if index:
                    print()
                print(report.format())
        return 0 if all(report.ok for report in reports) else 1

    # stats / warm / clear all prime the same deterministic workload:
    # the Section 5 correlation over the XML wire, against the shipped
    # scenario with a fixed seed
    cache = AnswerCache()
    with obs.capture("repro-cache") as tracer:
        scenario = build_scenario(
            eager=False, dialogue_via_xml=True, cache=cache
        )
        mediator = scenario.mediator
        runs = 1 if args.action == "warm" else 2
        for _run in range(runs):
            mediator.correlate(section5_query())
    flushed = None
    if args.action == "clear":
        flushed = cache.flush(reason="repro cache clear")
    payload = {
        "action": args.action,
        "cache": cache.stats_dict(),
        "counters": tracer.metrics.counters_with_prefix("cache."),
        "source_queries": tracer.metrics.counter_total("source.queries"),
        "query_wire_bytes": tracer.metrics.counter_value(
            "wire.bytes", kind="query"
        ),
    }
    if flushed is not None:
        payload["flushed"] = {"entries": flushed}
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    print("medcache %s — Section 5 workload (%d run%s over the XML wire)"
          % (args.action, runs, "" if runs == 1 else "s"))
    for key, value in sorted(payload["cache"].items()):
        print("  cache.%-28s %s" % (key, value))
    for key, value in sorted(payload["counters"].items()):
        print("  counter.%-26s %s" % (key, value))
    print("  %-34s %s" % ("source_queries", payload["source_queries"]))
    print("  %-34s %s" % ("query_wire_bytes", payload["query_wire_bytes"]))
    if flushed is not None:
        print("  flushed %d entries" % flushed)
    return 0


_EPILOG = """subcommands:
  demo   run the KIND scenario live demo (the default)
  lint   medlint — statically analyze deployments (MBM0xx diagnostics)
  trace  medtrace — run deployments under the tracer, print spans + metrics
  chaos  medguard — seeded fault injection + degraded-answer contract
  cache  medcache — answer-cache stats, warming, and correctness verify
"""


def build_parser():
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Model-Based Mediation with Domain Maps (ICDE 2001)",
        epilog=_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument(
        "--version",
        action="version",
        version="%(prog)s " + _version(),
    )
    sub = parser.add_subparsers(dest="command")

    demo_parser = sub.add_parser("demo", help="run the KIND scenario demo")
    demo_parser.add_argument(
        "--trace",
        action="store_true",
        help="append the medtrace span tree to the demo output",
    )
    demo_parser.add_argument(
        "--trace-json",
        metavar="PATH",
        help="write the trace as a JSON document to PATH",
    )
    demo_parser.set_defaults(func=demo)

    lint_parser = sub.add_parser(
        "lint",
        help="statically analyze deployments (medlint)",
        description="Lint deployment scripts without evaluating them. "
        "Each target is a Python file; every Mediator it constructs is "
        "analyzed. With no target, the shipped KIND scenario is linted.",
    )
    lint_parser.add_argument(
        "targets", nargs="*", help="deployment scripts (.py) to lint"
    )
    lint_parser.add_argument(
        "--json", action="store_true", help="emit machine-readable JSON"
    )
    lint_parser.add_argument(
        "--no-info", action="store_true", help="hide info-severity diagnostics"
    )
    lint_parser.add_argument(
        "--explain",
        action="store_true",
        help="follow each diagnostic with its catalog title",
    )
    lint_parser.set_defaults(func=lint)

    trace_parser = sub.add_parser(
        "trace",
        help="run deployments under the medtrace tracer",
        description="Run deployment scripts (or the shipped KIND "
        "scenario and its Section 5 query, when no target is given) "
        "with tracing enabled, then print the span tree and collected "
        "metrics.  See docs/observability.md for the span taxonomy.",
    )
    trace_parser.add_argument(
        "targets", nargs="*", help="deployment scripts (.py) to run traced"
    )
    trace_parser.add_argument(
        "--json", action="store_true", help="emit the JSON trace document"
    )
    trace_parser.add_argument(
        "--out", metavar="PATH", help="write the trace to PATH instead of stdout"
    )
    trace_parser.add_argument(
        "--mask-timings",
        action="store_true",
        help="render timings as '--' (deterministic shape output)",
    )
    trace_parser.add_argument(
        "--keep-output",
        action="store_true",
        help="do not silence the target scripts' own stdout",
    )
    trace_parser.add_argument(
        "--why",
        metavar="FACT",
        help="also print a stratum/round-annotated derivation tree for "
        "one mediated F-logic fact (shipped scenario only), e.g. "
        "\"'NCMIR.protein_amount.1' : 'Compartment'\"",
    )
    trace_parser.set_defaults(func=trace)

    chaos_parser = sub.add_parser(
        "chaos",
        help="run deployments under seeded fault injection (medguard)",
        description="Inject deterministic faults into wrapped sources "
        "and check the degraded-answer contract.  With no target, the "
        "shipped Section 5 scenario runs over the XML wire while a "
        "seeded schedule kills the retrieval source mid-plan; with "
        "targets, each deployment script runs with flaky wrappers and "
        "a default resilience policy.  Exits non-zero on any contract "
        "violation.  See docs/resilience.md.",
    )
    chaos_parser.add_argument(
        "targets", nargs="*", help="deployment scripts (.py) to run under chaos"
    )
    chaos_parser.add_argument(
        "--seed",
        type=int,
        default=7,
        help="fault-schedule seed (default: 7); identical seeds "
        "reproduce identical reports",
    )
    chaos_parser.add_argument(
        "--rate",
        type=float,
        default=0.2,
        help="per-call fault probability in script mode (default: 0.2)",
    )
    chaos_parser.add_argument(
        "--json", action="store_true", help="emit machine-readable JSON"
    )
    chaos_parser.add_argument(
        "--keep-output",
        action="store_true",
        help="do not silence the target scripts' own stdout",
    )
    chaos_parser.set_defaults(func=chaos)

    cache_parser = sub.add_parser(
        "cache",
        help="answer-cache stats / warming / correctness verify (medcache)",
        description="medcache front end.  'stats' runs the Section 5 "
        "correlation twice (cold, then warm from the cache) over the "
        "XML wire and prints the deterministic cache counters; 'warm' "
        "primes a cache with one run; 'clear' demonstrates the flush "
        "escape hatch; 'verify' checks the cache-correctness contract "
        "— cached reruns must answer byte-identically with zero query "
        "wire bytes — on the shipped scenario, or on each given "
        "deployment script run twice over one shared store.  Exits "
        "non-zero on a verify failure.  See docs/caching.md.",
    )
    cache_parser.add_argument(
        "action",
        choices=("stats", "warm", "clear", "verify"),
        help="what to do",
    )
    cache_parser.add_argument(
        "targets",
        nargs="*",
        help="deployment scripts (.py) for 'verify' (default: the "
        "shipped Section 5 scenario)",
    )
    cache_parser.add_argument(
        "--json", action="store_true", help="emit machine-readable JSON"
    )
    cache_parser.set_defaults(func=cache_cmd)
    return parser


def _version():
    from repro import __version__

    return __version__


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "func", None) is None:
            # bare `python -m repro` keeps running the demo
            return demo()
        return args.func(args)
    except BrokenPipeError:
        # output piped into a consumer that stopped reading (e.g. head)
        return 0


if __name__ == "__main__":
    sys.exit(main())
