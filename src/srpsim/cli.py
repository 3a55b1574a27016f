"""Command-line front end.

Subcommands: run a scenario file, drive a fuzz campaign, re-verify a stored
trace, and list the named attack catalog.  SRPSIM_OUT overrides the default
output directory for relative --trace/--verdicts/--report paths.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict
from pathlib import Path

from .adversary import CATALOG, AdversaryClass
from .harness import (MAX_FUZZ_NODES, FuzzConfig, check_trace, fuzz_campaign,
                      load_scenario, run_scenario, write_trace)
from .reader import ScenarioError
from .verifier import summarize

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3


class _CannotWrite(Exception):
    """An output file could not be written; the message names it."""


def _write_out(p: str, write) -> Path:
    """Write an output file with `write(path)`, relative paths under
    SRPSIM_OUT; raises _CannotWrite for any I/O error."""
    path = Path(p)
    if not path.is_absolute():
        path = Path(os.environ.get("SRPSIM_OUT", ".")) / path
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        write(path)
    except OSError as e:
        raise _CannotWrite(f"cannot write {path}: {e.strerror}")
    return path


def _cmd_run(args) -> int:
    scenario = load_scenario(args.scenario)
    result = run_scenario(scenario, seed=args.seed)
    print(f"scenario {scenario.name}  seed {result.seed}  "
          f"digest {result.digest:016x}")
    print(f"accepted routes: {len(result.records)}")
    for v in result.verdicts:
        acc = "-" if v.accurate is None else str(v.accurate).lower()
        err = "-" if v.metric_error is None else f"{v.metric_error:.6g}"
        print(f"  route {'>'.join(v.route)}  loop_free={str(v.loop_free).lower()} "
              f"fresh={str(v.fresh).lower()} weakly_fresh={str(v.weakly_fresh).lower()} "
              f"accurate={acc} metric_error={err}")
        if v.never_up_links:
            print(f"    never-up links: {['-'.join(e) for e in v.never_up_links]}")
        if v.weak_witness is not None:
            j, k, detour = v.weak_witness
            print(f"    weak-freshness witness: segment [{j},{k}] via {'>'.join(detour)}")
    if args.trace:
        p = _write_out(args.trace, lambda path: write_trace(path, result))
        print(f"trace written to {p}")
    if args.verdicts:
        classes = {spec.klass.value for spec in scenario.adversaries.values()}
        p = _write_out(args.verdicts, lambda path: path.write_text(json.dumps({
            "summary": summarize(result.verdicts, classes),
            "verdicts": [asdict(v) for v in result.verdicts],
        }, indent=2)))
        print(f"verdicts written to {p}")
    if result.expect_failures:
        for f in result.expect_failures:
            print(f"EXPECTATION VIOLATED: {f}")
        return EXIT_VIOLATION
    if scenario.expect:
        print("all expectations hold")
    return EXIT_OK


def _cmd_fuzz(args) -> int:
    try:
        config = FuzzConfig(
            runs=args.runs,
            klass=args.adversary_class,
            mode=args.mode,
            max_nodes=args.max_nodes,
            seed=args.seed,
        )
    except ValueError as e:
        print(f"fuzz error: {e}", file=sys.stderr)
        return EXIT_USAGE
    report = fuzz_campaign(
        config,
        progress=lambda done, total: print(f"  {done}/{total} runs", file=sys.stderr),
    )
    print(f"fuzz campaign: {report.runs} runs, class={config.klass.value}, "
          f"mode={config.mode}, max_nodes={config.max_nodes}, seed={config.seed}")
    print(f"accepted routes: {report.accepted_routes}")
    groups = report.by_kind()
    for kind, violations in groups.items():
        print(f"{kind} violations: {len(violations)}")
    for violations in groups.values():
        for v in violations:
            print(f"  VIOLATION seed={v.seed} kind={v.kind} route={'>'.join(v.route)} {v.detail}")
    if args.report:
        p = _write_out(args.report, lambda path: path.write_text(
            json.dumps(report.as_dict(), indent=2)))
        print(f"report written to {p}")
    return EXIT_VIOLATION if report.violations else EXIT_OK


def _cmd_check(args) -> int:
    scenario = load_scenario(args.scenario)
    try:
        ok, messages, verdicts = check_trace(args.trace, scenario)
    except OSError as e:  # missing, a directory, unreadable
        print(f"cannot read trace file {args.trace}: {e.strerror}", file=sys.stderr)
        return EXIT_USAGE
    print(f"re-verified {len(verdicts)} accepted routes from {args.trace}")
    for m in messages:
        print(f"CHECK FAILED: {m}")
    if ok:
        print("trace digest and route verdicts check out")
    return EXIT_OK if ok else EXIT_VIOLATION


def _cmd_list_attacks(args) -> int:
    for name in sorted(CATALOG):
        cls = CATALOG[name]
        klass = "arbitrary-only" if cls.arbitrary_only else "independent-compatible"
        doc = (cls.__doc__ or "").strip().split("\n")[0]
        print(f"{name:34s} {klass:24s} {doc}")
    return EXIT_OK


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="srpsim",
        description="Simulate secure route discovery under adversarial nodes "
                    "and verify every accepted route against the link-schedule "
                    "ground truth.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a scenario file and judge its expectations")
    p_run.add_argument("scenario")
    p_run.add_argument("--seed", type=int, default=None,
                       help="override the scenario's seed")
    p_run.add_argument("--trace", default=None, help="write the replayable trace here")
    p_run.add_argument("--verdicts", default=None, help="write per-route verdicts (JSON) here")
    p_run.set_defaults(func=_cmd_run)

    p_fuzz = sub.add_parser("fuzz", help="run a seeded random-adversary campaign")
    p_fuzz.add_argument("--runs", type=int, default=1000)
    p_fuzz.add_argument("--class", dest="adversary_class",
                        choices=[c.value for c in AdversaryClass],
                        default="arbitrary")
    p_fuzz.add_argument("--mode", choices=["basic", "augmented"], default="basic")
    p_fuzz.add_argument("--max-nodes", type=int, default=8,
                        help="largest topology, S and T included "
                             f"(4 to {MAX_FUZZ_NODES}; default 8)")
    p_fuzz.add_argument("--seed", type=int, default=0)
    p_fuzz.add_argument("--report", default=None, help="write the campaign report (JSON) here")
    p_fuzz.set_defaults(func=_cmd_fuzz)

    p_check = sub.add_parser("check", help="re-verify a stored trace against a scenario")
    p_check.add_argument("trace")
    p_check.add_argument("scenario")
    p_check.set_defaults(func=_cmd_check)

    p_list = sub.add_parser("list-attacks", help="list the named attack catalog")
    p_list.set_defaults(func=_cmd_list_attacks)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ScenarioError as e:
        print(f"scenario error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except _CannotWrite as e:
        print(e, file=sys.stderr)
        return EXIT_USAGE
    except Exception as e:  # a fault of srpsim, not of the input or the routes
        print(f"internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return EXIT_INTERNAL
