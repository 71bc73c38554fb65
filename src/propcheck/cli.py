"""Campaign runner and oracle front-end.

Subcommands:

* run    -- check/stronger campaign between a reference filter and a recipe
* dive   -- stateful campaign of random dives
* oracle -- filter one JSON instance through a reference filter
* replay -- re-execute the failing comparison recorded in a report

stdout carries exactly one JSON document; diagnostics go to stderr. Exit
codes: 0 pass, 1 counterexample found, 2 usage error, 3 enumeration cap
exceeded, 4 replay did not reproduce.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Any, Callable, Optional, Sequence

from . import checkers, minisolver, reference
from .comparator import (
    ComparisonMode,
    Failure,
    Filter,
    TestReport,
    _disagreement,
    check,
    stronger,
)
from .domains import (
    INCONSISTENT,
    INT32_MAX,
    INT32_MIN,
    ContractViolationError,
    Filtered,
    FilterOutcome,
    Instance,
    pointwise_equal,
)
from .generator import GenConfig
from .stateful import (
    POP,
    PUSH,
    BranchOp,
    DiveConfig,
    FilterWithState,
    IncrementalFiltering,
    Pop,
    Push,
    RestrictDomain,
    dive_campaign,
    _tested_outcome,
)

EXIT_PASS = 0
EXIT_COUNTEREXAMPLE = 1
EXIT_USAGE = 2
EXIT_CAP = 3
EXIT_NO_REPRODUCE = 4

_LEVELS = {lvl.value: lvl for lvl in reference.ConsistencyLevel}
_RECIPES = ("sum-bc", "alldiff-fc", "alldiff-ac")


class UsageError(Exception):
    pass


# ---------------------------------------------------------------------------
# Spec string parsing


def parse_checker(spec: str, arity: int) -> checkers.Checker:
    if spec == "alldiff":
        return checkers.all_different(arity)
    if spec.startswith("sum="):
        try:
            total = int(spec[4:])
        except ValueError:
            raise UsageError(f"invalid sum target in checker {spec!r}")
        return checkers.sum_equals(total, arity)
    raise UsageError(f"unknown checker {spec!r}; valid checkers: alldiff, sum=<c>")


def parse_reference_spec(spec: str, arity: int) -> Filter:
    level_name, sep, checker_spec = spec.partition(":")
    if not sep:
        raise UsageError(
            f"reference spec {spec!r} must look like <level>:<checker>, "
            f"e.g. boundz:sum=15"
        )
    if level_name not in _LEVELS:
        raise UsageError(
            f"unknown consistency level {level_name!r}; "
            f"valid levels: {', '.join(sorted(_LEVELS))}"
        )
    checker = parse_checker(checker_spec, arity)
    return reference.make_reference(_LEVELS[level_name], checker)


def parse_recipe(spec: str, trusted_spec: str) -> minisolver.Recipe:
    base, _, bug_part = spec.partition("+bug:")
    if base == "sum-bc":
        _, _, checker_spec = trusted_spec.partition(":")
        if not checker_spec.startswith("sum="):
            raise UsageError(
                "recipe sum-bc needs a sum=<c> checker on the trusted side "
                "to know its target"
            )
        try:
            total = int(checker_spec[4:])
        except ValueError:
            raise UsageError(f"invalid sum target in checker {checker_spec!r}")
        recipe = minisolver.sum_equals_bc(total)
    elif base == "alldiff-fc":
        recipe = minisolver.all_different_fc()
    elif base == "alldiff-ac":
        recipe = minisolver.all_different_ac()
    else:
        raise UsageError(
            f"unknown recipe {base!r}; valid recipes: {', '.join(_RECIPES)} "
            f"(or a <level>:<checker> reference)"
        )
    if bug_part:
        name = bug_part if bug_part.startswith("BUG_") or bug_part == "NONE" else f"BUG_{bug_part}"
        try:
            bug = minisolver.BugId(name)
        except ValueError:
            valid = ", ".join(b.value for b in minisolver.BugId)
            raise UsageError(f"unknown bug id {bug_part!r}; valid: {valid}")
        recipe = minisolver.with_bug(bug, recipe)
    return recipe


def parse_tested_filter(spec: str, trusted_spec: str, arity: int) -> Filter:
    if ":" in spec.partition("+bug:")[0]:
        return parse_reference_spec(spec, arity)
    return minisolver.as_filter(parse_recipe(spec, trusted_spec), arity)


def parse_tested_stateful(
    spec: str, trusted_spec: str, arity: int
) -> Callable[[], FilterWithState]:
    if ":" in spec.partition("+bug:")[0]:
        base = parse_reference_spec(spec, arity)
        return lambda: IncrementalFiltering(base)
    recipe = parse_recipe(spec, trusted_spec)
    return lambda: minisolver.as_filter_with_state(recipe, arity)


# ---------------------------------------------------------------------------
# JSON documents


def instance_to_doc(inst: Instance) -> dict:
    return {"domains": [list(d.values) for d in inst.domains]}


def instance_from_doc(doc: Any) -> Instance:
    if not isinstance(doc, dict) or "domains" not in doc:
        raise UsageError('instance document must be an object with a "domains" key')
    domains = doc["domains"]
    if not isinstance(domains, list) or not domains:
        raise UsageError('"domains" must be a non-empty list of lists')
    allow_empty = doc.get("allowEmpty", False)
    if not isinstance(allow_empty, bool):
        raise UsageError('"allowEmpty" must be true or false')
    for values in domains:
        if not isinstance(values, list) or not all(
            isinstance(v, int) and not isinstance(v, bool) for v in values
        ):
            raise UsageError("each domain must be a list of integers")
        if not values and not allow_empty:
            raise UsageError('empty domain requires "allowEmpty": true')
        if any(v < INT32_MIN or v > INT32_MAX for v in values):
            raise UsageError("domain values must fit in signed 32 bits")
    return Instance.of(domains)


def outcome_to_doc(outcome: FilterOutcome) -> dict:
    if outcome is INCONSISTENT:
        return {"status": "inconsistent"}
    return {
        "status": "filtered",
        "domains": [list(d.values) for d in outcome.instance.domains],
    }


def outcome_from_doc(doc: Any) -> FilterOutcome:
    if doc.get("status") == "inconsistent":
        return INCONSISTENT
    return Filtered(Instance.of(doc["domains"]))


def branch_op_to_doc(op: BranchOp) -> dict:
    if isinstance(op, Push):
        return {"op": "push"}
    if isinstance(op, Pop):
        return {"op": "pop"}
    return {
        "op": "restrict",
        "index": op.index,
        "relation": op.relation,
        "constant": op.constant,
    }


def branch_op_from_doc(doc: Any) -> BranchOp:
    kind = doc.get("op")
    if kind == "push":
        return PUSH
    if kind == "pop":
        return POP
    if kind == "restrict":
        return RestrictDomain(doc["index"], doc["relation"], doc["constant"])
    raise UsageError(f"unknown branch op {kind!r} in transcript")


def report_to_doc(
    report: TestReport,
    mode: str,
    trusted_spec: str,
    tested_spec: str,
    config: dict,
) -> dict:
    doc: dict = {
        "passed": report.passed,
        "testsRun": report.tests_run,
        "seed": str(report.seed),
        "mode": mode,
        "trusted": trusted_spec,
        "tested": tested_spec,
        "config": config,
        "redraws": report.redraws,
        "counterexample": None,
    }
    failure = report.failure
    if failure is not None:
        ce: dict = {
            "original": instance_to_doc(failure.original),
            "shrunk": instance_to_doc(failure.shrunk),
            "trusted": outcome_to_doc(failure.trusted_outcome),
            "tested": outcome_to_doc(failure.tested_outcome),
            "reason": failure.reason,
            "shrunkMinimal": failure.shrunk_minimal,
        }
        if failure.transcript is not None:
            ce["transcript"] = [branch_op_to_doc(op) for op in failure.transcript]
        doc["counterexample"] = ce
    return doc


# ---------------------------------------------------------------------------
# Subcommands


def _gen_config(args: argparse.Namespace) -> GenConfig:
    try:
        return GenConfig(
            n_vars=args.vars,
            value_min=args.min,
            value_max=args.max,
            density=args.density,
            n_tests=getattr(args, "tests", 1),
            seed=args.seed,
        )
    except ValueError as exc:
        raise UsageError(str(exc))


def _config_doc(args: argparse.Namespace, **extra: Any) -> dict:
    doc = {
        "vars": args.vars,
        "min": args.min,
        "max": args.max,
        "density": args.density,
    }
    doc.update(extra)
    return doc


def cmd_run(args: argparse.Namespace) -> int:
    cfg = _gen_config(args)
    trusted = parse_reference_spec(args.trusted, args.vars)
    tested = parse_tested_filter(args.tested, args.trusted, args.vars)
    runner = check if args.mode == "check" else stronger
    report = runner(trusted, tested, cfg)
    doc = report_to_doc(
        report,
        args.mode,
        args.trusted,
        args.tested,
        _config_doc(args, tests=args.tests),
    )
    print(json.dumps(doc))
    return EXIT_PASS if report.passed else EXIT_COUNTEREXAMPLE


def cmd_dive(args: argparse.Namespace) -> int:
    if args.dives < 1:
        raise UsageError("--dives must be >= 1")
    if args.max_depth < 1:
        raise UsageError("--max-depth must be >= 1")
    cfg = _gen_config(args)
    dive_cfg = DiveConfig(nb_dives=args.dives, max_depth=args.max_depth, seed=args.seed)
    trusted_base = parse_reference_spec(args.trusted, args.vars)
    trusted_factory = lambda: IncrementalFiltering(trusted_base)
    tested_factory = parse_tested_stateful(args.tested, args.trusted, args.vars)
    report = dive_campaign(trusted_factory, tested_factory, cfg, dive_cfg)
    doc = report_to_doc(
        report,
        "dives",
        args.trusted,
        args.tested,
        _config_doc(args, dives=args.dives, maxDepth=args.max_depth),
    )
    print(json.dumps(doc))
    return EXIT_PASS if report.passed else EXIT_COUNTEREXAMPLE


def cmd_oracle(args: argparse.Namespace) -> int:
    try:
        doc = json.load(sys.stdin)
    except json.JSONDecodeError as exc:
        raise UsageError(f"invalid JSON on stdin: {exc}")
    inst = instance_from_doc(doc)
    if args.level not in _LEVELS:
        raise UsageError(
            f"unknown consistency level {args.level!r}; "
            f"valid levels: {', '.join(sorted(_LEVELS))}"
        )
    checker = parse_checker(args.checker, inst.arity)
    filt = reference.make_reference(_LEVELS[args.level], checker)
    print(json.dumps(outcome_to_doc(filt.apply(inst))))
    return EXIT_PASS


def _replay_static(doc: dict) -> int:
    mode = (
        ComparisonMode.EQUALITY if doc["mode"] == "check"
        else ComparisonMode.TESTED_SUBSET_OF_TRUSTED
    )
    arity = doc["config"]["vars"]
    trusted = parse_reference_spec(doc["trusted"], arity)
    tested = parse_tested_filter(doc["tested"], doc["trusted"], arity)
    shrunk = instance_from_doc(doc["counterexample"]["shrunk"])
    found = _disagreement(trusted, tested, shrunk, mode)
    return EXIT_COUNTEREXAMPLE if found is not None else EXIT_NO_REPRODUCE


def _replay_dives(doc: dict) -> int:
    arity = doc["config"]["vars"]
    trusted = IncrementalFiltering(parse_reference_spec(doc["trusted"], arity))
    tested = parse_tested_stateful(doc["tested"], doc["trusted"], arity)()
    ce = doc["counterexample"]
    shrunk = instance_from_doc(ce["shrunk"])
    trusted_out = trusted.setup(shrunk)
    tested_out = _tested_outcome(lambda: tested.setup(shrunk))
    if not pointwise_equal(trusted_out, tested_out):
        return EXIT_COUNTEREXAMPLE
    for op_doc in ce.get("transcript", []):
        op = branch_op_from_doc(op_doc)
        trusted_out = trusted.branch_and_filter(op)
        tested_out = _tested_outcome(lambda: tested.branch_and_filter(op))
        if not pointwise_equal(trusted_out, tested_out):
            return EXIT_COUNTEREXAMPLE
    return EXIT_NO_REPRODUCE


def cmd_replay(args: argparse.Namespace) -> int:
    try:
        with open(args.report, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise UsageError(f"cannot read report: {exc}")
    except json.JSONDecodeError as exc:
        raise UsageError(f"report is not valid JSON: {exc}")
    if doc.get("passed", True) or doc.get("counterexample") is None:
        raise UsageError("report has no counterexample; nothing to replay")
    if doc.get("mode") == "dives":
        return _replay_dives(doc)
    if doc.get("mode") in ("check", "stronger"):
        return _replay_static(doc)
    raise UsageError(f"unknown report mode {doc.get('mode')!r}")


# ---------------------------------------------------------------------------
# Argument parsing


def _default_seed() -> int:
    env = os.environ.get("PROPCHECK_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise UsageError(f"PROPCHECK_SEED is not an integer: {env!r}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="propcheck",
        description="Differential testing of constraint filtering algorithms.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_gen_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--seed", type=int, default=None, help="campaign seed (64-bit)")
        p.add_argument("--vars", type=int, default=5, help="number of variables")
        p.add_argument("--min", type=int, default=-3, help="smallest candidate value")
        p.add_argument("--max", type=int, default=3, help="largest candidate value")
        p.add_argument(
            "--density", type=float, default=0.5,
            help="probability each candidate value enters a domain",
        )

    p_run = sub.add_parser("run", help="run a check or stronger campaign")
    p_run.add_argument("--mode", choices=("check", "stronger"), required=True)
    p_run.add_argument("--trusted", required=True, help="<level>:<checker>")
    p_run.add_argument("--tested", required=True, help="recipe or <level>:<checker>")
    p_run.add_argument("--tests", type=int, default=100)
    add_gen_flags(p_run)
    p_run.set_defaults(func=cmd_run)

    p_dive = sub.add_parser("dive", help="run a stateful dives campaign")
    p_dive.add_argument("--trusted", required=True, help="<level>:<checker>")
    p_dive.add_argument("--tested", required=True, help="recipe or <level>:<checker>")
    p_dive.add_argument("--dives", type=int, default=20)
    p_dive.add_argument("--max-depth", type=int, default=64)
    add_gen_flags(p_dive)
    p_dive.set_defaults(func=cmd_dive)

    p_oracle = sub.add_parser(
        "oracle", help="filter a JSON instance from stdin through a reference"
    )
    p_oracle.add_argument("--level", required=True)
    p_oracle.add_argument("--checker", required=True)
    p_oracle.set_defaults(func=cmd_oracle)

    p_replay = sub.add_parser("replay", help="replay a failing report")
    p_replay.add_argument("--report", required=True)
    p_replay.set_defaults(func=cmd_replay)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        if hasattr(args, "seed") and args.seed is None:
            args.seed = _default_seed()
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ContractViolationError as exc:
        print(f"contract violation: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except reference.EnumerationCapExceeded as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return EXIT_CAP


if __name__ == "__main__":
    sys.exit(main())
