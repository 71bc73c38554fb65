"""Workloads of the campaign benchmark and the checks on their outputs.

A workload is a fixed list of campaign shapes. One round runs every shape
once, each with its own campaign seed drawn from the workload seed, and the
benchmark runs rounds back to back. Campaigns the CLI can express go through
`propcheck.cli.main` in-process with stdout captured; the one it cannot
express (`alldiff-fc` as the trusted side) goes through `propcheck.check`.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import importlib
import io
import itertools
import json
import os
import random
import sys
import traceback
from dataclasses import dataclass
from time import perf_counter
from types import SimpleNamespace
from typing import Any, Iterator

N_VARS = 5  # the default GenConfig arity, which every shape uses
DENSE_DIVES = 200  # enough dives that dive work is a visible share of a round

# A fixed support search over 7**4 tuples, shaped like the inner loop of the
# reference filters; see `calibration_s`.
CALIBRATION_VALUES = (range(-3, 4),) * 4

MODULES = (
    "checkers", "cli", "comparator", "domains", "generator", "minisolver",
    "reference", "stateful",
)


@dataclass(frozen=True)
class Shape:
    """One kind of campaign: CLI mode, trusted and tested specs, expected verdict."""

    mode: str  # "check" | "stronger" | "dive"
    trusted: str
    tested: str
    expect_pass: bool
    via_cli: bool = True
    flags: tuple[str, ...] = ()

    @property
    def name(self) -> str:
        return f"{self.mode} {self.trusted} {self.tested}"


def _static_shapes(x: str) -> list[Shape]:
    """`stronger` pairs that follow arc ⊆ boundD ⊆ boundZ and arc ⊆ range ⊆ boundZ."""
    return [
        Shape("stronger", f"boundz:{x}", f"boundd:{x}", True),
        Shape("stronger", f"range:{x}", f"arc:{x}", True),
    ]


WORKLOADS: dict[str, list[Shape]] = {
    # Plentiful supports: the reference filters do nearly all the work and
    # the shrinker does none.
    "campaign-dense": [
        Shape("check", "arc:alldiff", "alldiff-ac", True),
        Shape("check", "boundz:sum=0", "sum-bc", True),
        *_static_shapes("alldiff"),
        *_static_shapes("sum=0"),
        Shape("dive", "arc:alldiff", "alldiff-ac", True, flags=("--dives", str(DENSE_DIVES))),
        Shape("dive", "boundz:sum=0", "sum-bc", True, flags=("--dives", str(DENSE_DIVES))),
    ],
    # The same reference layer with scarce supports: sum targets near the
    # edge of the value range, where many instances are inconsistent.
    "campaign-sparse": [
        shape
        for total in (6, -9)
        for shape in (
            Shape("check", f"boundz:sum={total}", "sum-bc", True),
            *_static_shapes(f"sum={total}"),
        )
    ],
    # Every campaign finds and shrinks a counterexample of a seeded bug.
    "bug-hunt": [
        Shape("check", "boundz:sum=0", "sum-bc+bug:SUM_REVERSED_BOUND", False),
        Shape("dive", "boundz:sum=0", "sum-bc+bug:TRAIL_NO_RESTORE", False),
        Shape("dive", "arc:alldiff", "alldiff-ac+bug:TRAIL_NO_RESTORE", False),
        Shape("check", "alldiff-fc", "alldiff-fc+bug:ALLDIFF_FC_SKIP_LAST", False, via_cli=False),
    ],
}


def calibration_s() -> float:
    """Time a fixed piece of pure-Python work that uses no propcheck code.

    The shared machine's speed drifts by up to 1.75x within a minute, and
    this work slows down with it, so a campaign's time divided by the
    calibration time around it stays steady. The garbage collector is off
    while it runs, so that the heap a campaign leaves behind cannot change it.
    """
    def pred(a):
        return sum(a) == 0

    marks: list[set] = [set() for _ in CALIBRATION_VALUES]
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter()
        for a in itertools.product(*CALIBRATION_VALUES):
            if pred(a):
                for i, v in enumerate(a):
                    marks[i].add(v)
        return perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def load_program() -> SimpleNamespace:
    """Import propcheck afresh, so that every call pays the full import."""
    for name in [m for m in sys.modules if m == "propcheck" or m.startswith("propcheck.")]:
        del sys.modules[name]
    prog = SimpleNamespace(pkg=importlib.import_module("propcheck"))
    for name in MODULES:
        setattr(prog, name, importlib.import_module(f"propcheck.{name}"))
    return prog


@dataclass
class Prepared:
    """A shape with everything built that its campaigns and checks need.

    `trusted` and `tested` are static filters; for dive shapes they are the
    bases of the stateful subjects. Attributes are set, not frozen, so that
    the tracer can swap in wrapped library filters for a traced run.
    """

    shape: Shape
    argv: tuple[str, ...]
    trusted: Any
    tested: Any
    tested_recipe: Any = None  # dive shapes: the recipe behind the tested subject


def prepare(prog: SimpleNamespace, workload: str) -> list[Prepared]:
    cli = prog.cli
    out = []
    for shape in WORKLOADS[workload]:
        if shape.via_cli:
            if shape.mode == "dive":
                argv = ("dive",)
            else:
                argv = ("run", "--mode", shape.mode)
            argv += ("--trusted", shape.trusted, "--tested", shape.tested) + shape.flags
            trusted = cli.parse_reference_spec(shape.trusted, N_VARS)
        else:
            argv = ()
            trusted = prog.minisolver.as_filter(cli.parse_recipe(shape.trusted, ""), N_VARS)
        tested = cli.parse_tested_filter(shape.tested, shape.trusted, N_VARS)
        recipe = None
        if shape.mode == "dive":
            recipe = cli.parse_recipe(shape.tested, shape.trusted)
        out.append(Prepared(shape, argv, trusted, tested, recipe))
    return out


def rounds(workload: str, seed: int) -> Iterator[list[tuple[int, int]]]:
    """Endless rounds of (shape index, campaign seed); a pure function of the seed."""
    rng = random.Random(f"{workload}/{seed}")
    n = len(WORKLOADS[workload])
    while True:
        yield [(i, rng.getrandbits(32)) for i in range(n)]


@dataclass
class Result:
    """One campaign: its verdict time, report and what the checks found."""

    shape: str
    seed: int
    elapsed: float
    static: bool
    calibration: float = 0.0  # mean calibration time just before and just after
    report: str = ""
    tests_run: int = 0
    compared: int = 0  # static campaigns: instances drawn plus shrink candidates
    redraws: int = 0
    failed: bool = False
    missed: bool = False
    why: str = ""


def report_digest(results: list[Result]) -> str:
    h = hashlib.sha256()
    for r in results:
        h.update(f"{r.shape}|{r.seed}|{r.report}\n".encode())
    return h.hexdigest()


class CheckFailed(Exception):
    pass


def _tracing(tracer):
    return contextlib.nullcontext() if tracer is None else tracer.on()


def run_campaign(
    prog: SimpleNamespace, prep: Prepared, seed: int, scratch: str, tracer=None,
    check: bool = True,
) -> Result:
    """Run one campaign, timing it from its call to its report, then check it.

    The calibration work runs just before and just after the campaign. With a
    tracer, tracing is on during the campaign call and the replay and off
    during the other checks.
    """
    shape = prep.shape
    res = Result(shape.name, seed, 0.0, static=shape.mode != "dive")
    if tracer is not None:
        tracer.campaign_id += 1
    try:
        before = res.calibration = calibration_s()
        with _tracing(tracer):
            if shape.via_cli:
                buf = io.StringIO()
                t0 = perf_counter()
                with contextlib.redirect_stdout(buf):
                    code = prog.cli.main([*prep.argv, "--seed", str(seed)])
                res.elapsed = perf_counter() - t0
                res.report = buf.getvalue()
            else:
                cfg = prog.generator.GenConfig(seed=seed)
                t0 = perf_counter()
                report = prog.comparator.check(prep.trusted, prep.tested, cfg)
                res.elapsed = perf_counter() - t0
                code = prog.cli.EXIT_PASS if report.passed else prog.cli.EXIT_COUNTEREXAMPLE
        res.calibration = (before + calibration_s()) / 2
        if not shape.via_cli:
            doc = prog.cli.report_to_doc(
                report, shape.mode, shape.trusted, shape.tested, {"vars": N_VARS}
            )
            res.report = json.dumps(doc) + "\n"
        if check:
            _check(prog, prep, seed, code, res, scratch, tracer)
    except CheckFailed as exc:
        res.failed, res.why = True, str(exc)
    except Exception:  # a crash of the campaign or a check is a failed campaign
        res.failed, res.why = True, traceback.format_exc(limit=4)
    return res


def _check(
    prog: SimpleNamespace, prep: Prepared, seed: int, code: int, res: Result,
    scratch: str, tracer,
) -> None:
    cli = prog.cli
    doc = json.loads(res.report)
    res.tests_run = doc["testsRun"] if res.static else 0
    res.compared = res.tests_run
    res.redraws = doc["redraws"]
    if code not in (cli.EXIT_PASS, cli.EXIT_COUNTEREXAMPLE):
        raise CheckFailed(f"exit code {code}")
    if doc["passed"] != (code == cli.EXIT_PASS):
        raise CheckFailed("exit code disagrees with the report")
    if prep.shape.expect_pass:
        if not doc["passed"]:
            raise CheckFailed(f"correct pair reported a counterexample: {doc['counterexample']}")
        return
    if doc["passed"]:
        res.missed = True  # detection is below 100% on some seeds
        return
    ce = doc["counterexample"]
    if not ce["shrunkMinimal"]:
        raise CheckFailed("shrink budget ran out before a 1-minimal instance")
    if prep.shape.via_cli:
        path = os.path.join(scratch, "report.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(res.report)
        with _tracing(tracer), contextlib.redirect_stdout(io.StringIO()):
            replayed = cli.main(["replay", "--report", path])
        if replayed != cli.EXIT_COUNTEREXAMPLE:
            raise CheckFailed(f"replay exited {replayed}, not {cli.EXIT_COUNTEREXAMPLE}")
    shrunk = cli.instance_from_doc(ce["shrunk"])
    if prep.shape.mode == "dive":
        _check_dive(prog, prep, seed, doc, shrunk)
    else:
        res.compared += _check_static(prog, prep, ce, shrunk)


def _removals(inst) -> Iterator:
    """Every instance with one value removed from a domain of size > 1."""
    for i, d in enumerate(inst.domains):
        if len(d) > 1:
            for v in d:
                doms = list(inst.domains)
                doms[i] = d.remove(v)
                yield type(inst)(doms)


def _check_static(prog: SimpleNamespace, prep: Prepared, ce: dict, shrunk) -> int:
    """Check a static counterexample; returns the shrinker's evaluations."""
    domains = prog.domains

    def agree(trusted_out, tested_out) -> bool:
        if prep.shape.mode == "check":
            return domains.pointwise_equal(trusted_out, tested_out)
        return domains.pointwise_subset(tested_out, trusted_out)

    def fails(inst) -> bool:
        return not agree(prep.trusted.apply(inst), prep.tested.apply(inst))

    trusted_out, tested_out = prep.trusted.apply(shrunk), prep.tested.apply(shrunk)
    if agree(trusted_out, tested_out):
        raise CheckFailed("the filters agree on the shrunk instance")
    recorded = (ce["trusted"], ce["tested"])
    if (prog.cli.outcome_to_doc(trusted_out), prog.cli.outcome_to_doc(tested_out)) != recorded:
        raise CheckFailed("the report's outcomes differ from the filters' outcomes")
    for smaller in _removals(shrunk):
        if fails(smaller):
            raise CheckFailed(f"not 1-minimal: {smaller!r} still fails")
    again = prog.generator.shrink(prog.cli.instance_from_doc(ce["original"]), fails)
    if again.instance != shrunk:
        raise CheckFailed("shrinking the original again gives another instance")
    return again.evaluations


def _tested_outcome(prog: SimpleNamespace, call):
    """A raising subject counts as claiming inconsistency, as in dive campaigns."""
    try:
        return call()
    except prog.domains.ContractViolationError:
        raise
    except Exception:
        return prog.domains.INCONSISTENT


def _check_dive(prog: SimpleNamespace, prep: Prepared, seed: int, doc: dict, shrunk) -> None:
    stateful, generator = prog.stateful, prog.generator
    equal = prog.domains.pointwise_equal

    def trusted():
        return stateful.IncrementalFiltering(prep.trusted)

    def tested():
        return prog.minisolver.as_filter_with_state(prep.tested_recipe, N_VARS)

    # The transcript replayed from the shrunk root on fresh subjects must
    # disagree after setup or after some operation.
    t, s = trusted(), tested()
    agree = equal(t.setup(shrunk), _tested_outcome(prog, lambda: s.setup(shrunk)))
    for op_doc in doc["counterexample"].get("transcript", []):
        if not agree:
            break
        op = prog.cli.branch_op_from_doc(op_doc)
        agree = equal(
            t.branch_and_filter(op), _tested_outcome(prog, lambda: s.branch_and_filter(op))
        )
    if agree:
        raise CheckFailed("the transcript does not reproduce on the shrunk root")

    # 1-minimality: the dive campaign shrinks under a fixed dive seed, drawn
    # right after the root; no single removal from the shrunk root may fail.
    cfg = generator.GenConfig(seed=seed)
    rng = generator.SplitMix64(seed)
    root = generator.generate_instance(rng, cfg)
    while root.search_space_size() > prog.reference.DEFAULT_CAP:
        root = generator.generate_instance(rng, cfg)
    if root != prog.cli.instance_from_doc(doc["counterexample"]["original"]):
        raise CheckFailed("the recorded root is not the seed's first instance within the cap")
    dive_seed = rng.next_u64()
    dive_cfg = stateful.DiveConfig(
        nb_dives=doc["config"]["dives"], max_depth=doc["config"]["maxDepth"], seed=seed
    )
    for smaller in _removals(shrunk):
        rng = generator.SplitMix64(dive_seed)
        if not stateful.dives(smaller, trusted(), tested(), dive_cfg, rng).passed:
            raise CheckFailed(f"not 1-minimal: {smaller!r} still fails")
