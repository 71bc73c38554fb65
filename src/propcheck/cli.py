"""Campaign runner and oracle front-end.

Subcommands:

* run    -- check/stronger campaign of a trusted subject against a tested one
* dive   -- stateful campaign of random dives
* oracle -- filter one JSON instance through a reference filter
* replay -- re-execute the failing comparison recorded in a report

Either side of run and dive takes a recipe (`<recipe>[+bug:<id>]`) or a
reference (`<level>:<checker>`), both over the trusted side's checker.

stdout carries exactly one JSON document; diagnostics go to stderr. Exit
codes: 0 pass, 1 counterexample found, 2 usage error, 3 enumeration cap
exceeded, 4 replay did not reproduce.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from typing import Any, Callable, Optional, Sequence

from . import checkers, minisolver, reference
from .comparator import ComparisonMode, Filter, TestReport, check, disagreement, stronger
from .domains import (
    INCONSISTENT,
    ContractViolationError,
    Filtered,
    FilterOutcome,
    Instance,
)
from .generator import GenConfig
from .stateful import (
    POP,
    PUSH,
    RELATIONS,
    BranchOp,
    DiveConfig,
    FilterWithState,
    Pop,
    Push,
    RestrictDomain,
    dive_campaign,
    incremental_factory,
    replay,
)

EXIT_PASS = 0
EXIT_COUNTEREXAMPLE = 1
EXIT_USAGE = 2
EXIT_CAP = 3
EXIT_NO_REPRODUCE = 4

_LEVELS = {lvl.value: lvl for lvl in reference.ConsistencyLevel}
_LEVEL_FUNCTIONS = {
    reference.ConsistencyLevel.ARC: reference.arc_filter,
    reference.ConsistencyLevel.BOUND_Z: reference.bound_z_filter,
    reference.ConsistencyLevel.BOUND_D: reference.bound_d_filter,
    reference.ConsistencyLevel.RANGE: reference.range_filter,
}


class UsageError(Exception):
    pass


# ---------------------------------------------------------------------------
# Spec string parsing
#
# A subject spec, on either side, names a level or a recipe, and the checker
# it filters by as a pair (kind, total): `boundz:sum=0` filters by ("sum", 0),
# and a recipe by its kind with no total, which a sum recipe takes from the
# trusted side. A command gets one `Checker` from the trusted pair for both
# sides, and the bundled factories give every command over one pair that
# same checker.

_CheckerSpec = tuple[str, Optional[int]]  # ("alldiff", None) or ("sum", total)
_Side = tuple[Filter, Callable[[], FilterWithState]]  # static filter, stateful factory


def _build_checker(checker: _CheckerSpec, arity: int) -> checkers.Checker:
    kind, total = checker
    if kind == "alldiff":
        return checkers.all_different(arity)
    return checkers.sum_equals(total, arity)


def _parse_level(name: str) -> reference.ConsistencyLevel:
    if name not in _LEVELS:
        valid = ", ".join(sorted(_LEVELS))
        raise UsageError(f"unknown consistency level {name!r}; valid levels: {valid}")
    return _LEVELS[name]


def _parse_checker(spec: str) -> _CheckerSpec:
    if spec == "alldiff":
        return ("alldiff", None)
    if not spec.startswith("sum="):
        raise UsageError(f"unknown checker {spec!r}; valid checkers: alldiff, sum=<c>")
    try:
        return ("sum", int(spec[4:]))
    except ValueError:
        raise UsageError(f"invalid sum target in checker {spec!r}")


def _parse_spec(spec: str) -> tuple[_CheckerSpec, Any]:
    """The checker `spec` filters by, and its level or recipe."""
    base, bug_sep, bug_part = spec.partition("+bug:")
    level_name, sep, checker_spec = base.partition(":")
    if sep:
        if bug_sep:
            raise UsageError(
                f"+bug: applies only to a recipe, not to reference {spec!r}; "
                f"valid recipes: {', '.join(minisolver.RECIPES)}"
            )
        level = _parse_level(level_name)
        return _parse_checker(checker_spec), level
    kind = minisolver.RECIPES.get(base)
    if kind is None:
        raise UsageError(
            f"unknown recipe {base!r}; valid recipes: {', '.join(minisolver.RECIPES)} "
            f"(or a <level>:<checker> reference)"
        )
    recipe = minisolver.Recipe(base)
    if bug_sep:
        name = bug_part if bug_part.startswith("BUG_") or bug_part == "NONE" else f"BUG_{bug_part}"
        try:
            recipe = minisolver.with_bug(minisolver.BugId(name), recipe)
        except ValueError:
            valid = ", ".join(b.value for b in minisolver.BugId)
            raise UsageError(f"unknown bug id {bug_part!r}; valid: {valid}")
        except ContractViolationError as exc:
            raise UsageError(str(exc))
    return (kind.checker, None), recipe


def _subjects(trusted_spec: str, tested_spec: str) -> tuple[_CheckerSpec, Any, Any]:
    """The checker of `trusted_spec`, and each spec's level or recipe. The
    tested spec must filter by that checker: a reference names it, and a
    recipe names its kind and takes a sum's total from it."""
    checker, trusted = _parse_spec(trusted_spec)
    if checker == ("sum", None):
        raise UsageError(f"trusted {trusted_spec!r} has no sum total; name one as <level>:sum=<c>")
    (kind, total), tested = _parse_spec(tested_spec)
    if isinstance(tested, minisolver.Recipe):
        total = checker[1]
        tested = tested._replace(total=total)
    if (kind, total) != checker:
        raise UsageError(
            f"tested {tested_spec!r} filters by another checker than trusted {trusted_spec!r}"
        )
    return checker, trusted, tested


def _side(subject: Any, checker: checkers.Checker) -> _Side:
    """A recipe's solver, or a level's reference filter over `checker`.
    A recipe's factory gives a fresh solver every call; a reference's gives
    snapshot subjects that share one bounded memo of the filter's outcomes
    for the life of the command (`stateful.incremental_factory`)."""
    if isinstance(subject, minisolver.Recipe):
        factory = functools.partial(minisolver.as_filter_with_state, subject, checker.arity)
        return minisolver.as_filter(subject, checker.arity), factory
    base = reference.make_reference(subject, checker)
    return base, incremental_factory(base)


def _sides(trusted_spec: str, tested_spec: str, arity: int) -> tuple[_Side, _Side]:
    """Each side's static filter and stateful factory, both over one checker."""
    checker, trusted, tested = _subjects(trusted_spec, tested_spec)
    built = _build_checker(checker, arity)
    return _side(trusted, built), _side(tested, built)


def parse_reference_spec(spec: str, arity: int) -> Filter:
    """The static filter of the trusted `spec`, a level or a recipe."""
    return _sides(spec, spec, arity)[0][0]


def parse_recipe(spec: str, trusted_spec: str) -> minisolver.Recipe:
    """The recipe `spec` names, over `trusted_spec`'s checker or, if that is empty, its own."""
    recipe = _subjects(trusted_spec or spec, spec)[2]
    if not isinstance(recipe, minisolver.Recipe):
        raise UsageError(f"{spec!r} names a reference, not a recipe")
    return recipe


def parse_tested_filter(spec: str, trusted_spec: str, arity: int) -> Filter:
    """The tested side's static filter."""
    return _sides(trusted_spec, spec, arity)[1][0]


# ---------------------------------------------------------------------------
# JSON documents


def instance_to_doc(inst: Instance) -> dict:
    return {"domains": [list(d.values) for d in inst.domains]}


def _is_int(v: Any) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


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
        if not isinstance(values, list):
            raise UsageError("each domain must be a list of integers")
        if not values and not allow_empty:
            raise UsageError('empty domain requires "allowEmpty": true')
    try:
        return Instance.of(domains)
    except (TypeError, ValueError) as exc:
        raise UsageError(str(exc))


def outcome_to_doc(outcome: FilterOutcome) -> dict:
    if outcome is INCONSISTENT:
        return {"status": "inconsistent"}
    return {"status": "filtered", **instance_to_doc(outcome.instance)}


def outcome_from_doc(doc: Any) -> FilterOutcome:
    status = doc.get("status") if isinstance(doc, dict) else None
    if status == "inconsistent":
        return INCONSISTENT
    if status != "filtered":
        raise UsageError('an outcome must have "status": "inconsistent" or "filtered"')
    return Filtered(instance_from_doc({"domains": doc.get("domains")}))


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
    kind = doc.get("op") if isinstance(doc, dict) else None
    if kind == "push":
        return PUSH
    if kind == "pop":
        return POP
    if kind != "restrict":
        raise UsageError(f"unknown branch op {kind!r} in transcript")
    index, relation, constant = (doc.get(k) for k in ("index", "relation", "constant"))
    if not (_is_int(index) and relation in RELATIONS and _is_int(constant)):
        raise UsageError(f"invalid restrict op {doc!r} in transcript")
    return RestrictDomain(index, relation, constant)


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


def _print_report(report: TestReport, mode: str, args: argparse.Namespace, **extra: Any) -> int:
    config = {"vars": args.vars, "min": args.min, "max": args.max, "density": args.density}
    doc = report_to_doc(report, mode, args.trusted, args.tested, {**config, **extra})
    print(json.dumps(doc))
    return EXIT_PASS if report.passed else EXIT_COUNTEREXAMPLE


def cmd_run(args: argparse.Namespace) -> int:
    cfg = _gen_config(args)
    (trusted, _), (tested, _) = _sides(args.trusted, args.tested, args.vars)
    runner = check if args.mode == "check" else stronger
    return _print_report(runner(trusted, tested, cfg), args.mode, args, tests=args.tests)


def cmd_dive(args: argparse.Namespace) -> int:
    cfg = _gen_config(args)
    try:
        dive_cfg = DiveConfig(nb_dives=args.dives, max_depth=args.max_depth)
    except ValueError as exc:
        raise UsageError(str(exc))
    (_, trusted), (_, tested) = _sides(args.trusted, args.tested, args.vars)
    report = dive_campaign(trusted, tested, cfg, dive_cfg)
    return _print_report(report, "dives", args, dives=args.dives, maxDepth=args.max_depth)


def cmd_oracle(args: argparse.Namespace) -> int:
    try:
        doc = json.load(sys.stdin)
    except json.JSONDecodeError as exc:
        raise UsageError(f"invalid JSON on stdin: {exc}")
    inst = instance_from_doc(doc)
    # A level function: a make_reference filter would build a table over the
    # instance for the one call, and a table pays back only over many calls.
    apply = _LEVEL_FUNCTIONS[_parse_level(args.level)]
    checker = _build_checker(_parse_checker(args.checker), inst.arity)
    print(json.dumps(outcome_to_doc(apply(checker, inst))))
    return EXIT_PASS


_JSON_TYPES = {dict: "object", list: "array", str: "string", int: "integer"}


def _field(doc: dict, key: str, kind: type) -> Any:
    value = doc.get(key)
    if not isinstance(value, kind) or (kind is int and isinstance(value, bool)):
        raise UsageError(f"report field {key!r} must be a JSON {_JSON_TYPES[kind]}")
    return value


def _not_reproduced(what: str) -> int:
    print(f"not reproduced: {what}", file=sys.stderr)
    return EXIT_NO_REPRODUCE


def cmd_replay(args: argparse.Namespace) -> int:
    try:
        with open(args.report, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise UsageError(f"cannot read report: {exc}")
    except json.JSONDecodeError as exc:
        raise UsageError(f"report is not valid JSON: {exc}")
    if not isinstance(doc, dict):
        raise UsageError("report must be a JSON object")
    if doc.get("passed", True) or doc.get("counterexample") is None:
        raise UsageError("report has no counterexample; nothing to replay")
    mode = doc.get("mode")
    if mode not in ("check", "stronger", "dives"):
        raise UsageError(f"unknown report mode {mode!r}")
    arity = _field(_field(doc, "config", dict), "vars", int)
    if arity < 1:
        raise UsageError("report field 'vars' must be >= 1")
    trusted_spec, tested_spec = _field(doc, "trusted", str), _field(doc, "tested", str)
    ce = _field(doc, "counterexample", dict)
    shrunk = instance_from_doc(ce.get("shrunk"))
    recorded = (
        _field(ce, "reason", str),
        outcome_from_doc(ce.get("trusted")),
        outcome_from_doc(ce.get("tested")),
    )
    (trusted, trusted_factory), (tested, tested_factory) = _sides(trusted_spec, tested_spec, arity)
    if mode == "dives":
        ops = [branch_op_from_doc(op) for op in _field(ce, "transcript", list)]
        failure = replay(shrunk, ops, trusted_factory(), tested_factory())
        if failure is not None and len(failure.transcript) < len(ops):
            return _not_reproduced(
                f"the outcomes already differ after {len(failure.transcript)} "
                f"of the {len(ops)} transcript ops"
            )
    else:
        failure = disagreement(trusted, tested, shrunk, ComparisonMode(mode))
    if failure is None:
        return _not_reproduced("the filters agree on the shrunk instance")
    found = (failure.reason, failure.trusted_outcome, failure.tested_outcome)
    for what, got, want in zip(("reason", "trusted outcome", "tested outcome"), found, recorded):
        if got != want:
            return _not_reproduced(f"the {what} is {got!r}, not the recorded {want!r}")
    return EXIT_COUNTEREXAMPLE


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
    p_run.add_argument("--trusted", required=True, help="recipe or <level>:<checker>")
    p_run.add_argument("--tested", required=True, help="recipe or <level>:<checker>")
    p_run.add_argument("--tests", type=int, default=100)
    add_gen_flags(p_run)

    p_dive = sub.add_parser("dive", help="run a stateful dives campaign")
    p_dive.add_argument("--trusted", required=True, help="recipe or <level>:<checker>")
    p_dive.add_argument("--tested", required=True, help="recipe or <level>:<checker>")
    p_dive.add_argument("--dives", type=int, default=20)
    p_dive.add_argument("--max-depth", type=int, default=64)
    add_gen_flags(p_dive)

    p_oracle = sub.add_parser(
        "oracle", help="filter a JSON instance from stdin through a reference"
    )
    p_oracle.add_argument("--level", required=True)
    p_oracle.add_argument("--checker", required=True)

    p_replay = sub.add_parser("replay", help="replay a failing report")
    p_replay.add_argument("--report", required=True)

    return parser


# Built on the first `main` call, not at import; parsing leaves it unchanged.
_shared_parser = functools.cache(build_parser)


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = _shared_parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        if hasattr(args, "seed") and args.seed is None:
            args.seed = _default_seed()
        # Looked up per call, so a handler replaced after the first call runs.
        handlers = {"run": cmd_run, "dive": cmd_dive, "oracle": cmd_oracle, "replay": cmd_replay}
        return handlers[args.command](args)
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
