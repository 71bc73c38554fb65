"""Spans and counts at propcheck's layer boundaries, recorded from outside.

`installed` swaps the public names that propcheck calls through for
wrappers and puts the originals back on exit; nothing under `src/` changes.
Each wrapped call adds one span (name, start, end, parent span, campaign id)
to arrays held in memory. Checker predicates run millions of times per
campaign, so they get counters instead of spans; their calls are charged
to the reference level whose filter is running.
"""

from __future__ import annotations

import contextlib
import functools
from array import array
from collections import Counter
from time import perf_counter
from types import SimpleNamespace
from typing import Callable, Iterator

LEVELS = ("arc", "boundz", "boundd", "range")


class Tracer:
    """Spans and exact work counts of the campaigns run while it is active."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_of = array("i")
        self.parent = array("i")
        self.campaign = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.campaign_id = -1
        self.active = False
        self.counts: Counter = Counter()
        # [predicate calls, accepted calls] per level, plus one for calls
        # made outside any reference filter.
        self.pred = {level: [0, 0] for level in LEVELS}
        self._pred_cell = [0, 0]

    @contextlib.contextmanager
    def on(self) -> Iterator[None]:
        self.active = True
        try:
            yield
        finally:
            self.active = False

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name_of.append(nid)
        self.parent.append(self._stack[-1])
        self.campaign.append(self.campaign_id)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn: Callable) -> Callable:
        nid = self._id(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = self._open(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)

        return traced

    def counted(self, key: str, kind: Callable, fn: Callable) -> Callable:
        """`fn` whose calls, while active, are counted under `key.<kind(arg)>`."""

        @functools.wraps(fn)
        def counting(self_, arg):
            if self.active:
                self.counts[f"{key}.{kind(arg)}"] += 1
            return fn(self_, arg)

        return counting

    def reference_apply(self, level: str, apply: Callable, prog: SimpleNamespace) -> Callable:
        nid = self._id(f"reference.{level}")
        cell = self.pred[level]
        inconsistent = prog.domains.INCONSISTENT
        cap_exceeded = prog.reference.EnumerationCapExceeded

        def traced(inst):
            if not self.active:
                return apply(inst)
            outer, self._pred_cell = self._pred_cell, cell
            idx = self._open(nid)
            try:
                out = apply(inst)
            except cap_exceeded:
                self.counts["reference.cap_exceeded"] += 1
                raise
            finally:
                self._close(idx)
                self._pred_cell = outer
            if out is inconsistent:
                self.counts["reference.inconsistent"] += 1
            elif out.instance == inst:
                self.counts["reference.unchanged"] += 1
            else:
                self.counts["reference.pruned"] += 1
            return out

        return traced

    def counted_checker(self, checker, prog: SimpleNamespace):
        pred = checker.predicate

        def predicate(a):
            ok = pred(a)
            cell = self._pred_cell
            cell[0] += 1
            if ok:
                cell[1] += 1
            return ok

        return prog.checkers.Checker(checker.arity, predicate, checker.name)

    def shrink(self, fn: Callable) -> Callable:
        traced_fn = self.wrap("generator.shrink", fn)

        @functools.wraps(fn)
        def shrink(failing, fails, *args, **kwargs):
            if not self.active:
                return fn(failing, fails, *args, **kwargs)

            def counted_fails(inst):
                failed = fails(inst)
                self.counts["shrink.evals"] += 1
                self.counts["shrink.accepted"] += bool(failed)
                return failed

            return traced_fn(failing, counted_fails, *args, **kwargs)

        return shrink

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span\tname\tstart\tend\tparent\tcampaign\n")
            for i in range(len(self.start)):
                fh.write(
                    f"{i}\t{self.names[self.name_of[i]]}\t{self.start[i]!r}\t{self.end[i]!r}"
                    f"\t{self.parent[i]}\t{self.campaign[i]}\n"
                )

    def layer_times(self) -> tuple[dict[str, float], dict[str, float], Counter, float]:
        """Self time, total time and span count per name, and the traced wall time.

        A span's self time is its duration minus the time its child spans
        cover; spans nest strictly because the benchmark is single-threaded.
        The wall time is the time covered by root spans.
        """
        n = len(self.start)
        children = [0.0] * n
        wall = 0.0
        for i in range(n):
            dur = self.end[i] - self.start[i]
            p = self.parent[i]
            if p >= 0:
                children[p] += dur
            else:
                wall += dur
        self_s: dict[str, float] = {name: 0.0 for name in self.names}
        total_s: dict[str, float] = {name: 0.0 for name in self.names}
        calls: Counter = Counter()
        for i in range(n):
            name = self.names[self.name_of[i]]
            dur = self.end[i] - self.start[i]
            self_s[name] += dur - children[i]
            total_s[name] += dur
            calls[name] += 1
        return self_s, total_s, calls, wall

    def exact_counts(self) -> dict[str, int]:
        """Work counts that repeat exactly for the same campaigns."""
        _, _, calls, _ = self.layer_times()
        out = {f"{name}.calls": calls[name] for name in sorted(calls)}
        out.update(sorted(self.counts.items()))
        for level, (n_calls, accepted) in self.pred.items():
            out[f"checkers.{level}.pred_calls"] = n_calls
            out[f"checkers.{level}.accepted"] = accepted
        return out


def _op_kind(prog: SimpleNamespace) -> Callable:
    stateful = prog.stateful

    def kind(op) -> str:
        if isinstance(op, stateful.Push):
            return "push"
        if isinstance(op, stateful.Pop):
            return "pop"
        return "restrict"

    return kind


@contextlib.contextmanager
def installed(tracer: Tracer, prog: SimpleNamespace, prepared: list) -> Iterator[None]:
    """Route propcheck's layer calls through `tracer` until the block exits."""
    cli, comparator, stateful = prog.cli, prog.comparator, prog.stateful
    minisolver = prog.minisolver
    Filter = comparator.Filter

    with contextlib.ExitStack() as stack:

        def patch(obj, attr: str, new) -> None:
            stack.callback(setattr, obj, attr, getattr(obj, attr))
            setattr(obj, attr, new)

        def traced_filter(name: str, f):
            return Filter(arity=f.arity, apply=tracer.wrap(name, f.apply), name=f.name)

        patch(cli, "main", tracer.wrap("cli.main", cli.main))
        patch(cli, "cmd_replay", tracer.wrap("cli.replay", cli.cmd_replay))
        for module, attr in ((cli, "check"), (cli, "stronger"), (cli, "dive_campaign"),
                             (comparator, "check")):
            patch(module, attr, tracer.wrap("comparator.campaign", getattr(module, attr)))
        patch(comparator, "generate_instance",
              tracer.wrap("generator.generate", comparator.generate_instance))
        patch(comparator, "shrink", tracer.shrink(comparator.shrink))
        patch(stateful, "shrink", tracer.shrink(stateful.shrink))
        patch(stateful, "dives", tracer.wrap("stateful.dives", stateful.dives))

        make_reference = prog.reference.make_reference

        def traced_make_reference(level, checker, *args, **kwargs):
            f = make_reference(level, checker, *args, **kwargs)
            apply = tracer.reference_apply(level.value, f.apply, prog)
            return Filter(arity=f.arity, apply=apply, name=f.name)

        patch(prog.reference, "make_reference", traced_make_reference)
        for attr in ("all_different", "sum_equals"):
            factory = getattr(prog.checkers, attr)
            patch(prog.checkers, attr, functools.wraps(factory)(
                lambda *a, factory=factory: tracer.counted_checker(factory(*a), prog)
            ))

        as_filter = minisolver.as_filter
        patch(minisolver, "as_filter",
              lambda recipe, arity: traced_filter("minisolver.filter", as_filter(recipe, arity)))
        for prep in prepared:
            if not prep.shape.via_cli:
                patch(prep, "trusted", traced_filter("minisolver.filter", prep.trusted))
                patch(prep, "tested", traced_filter("minisolver.filter", prep.tested))

        # The trusted subject of every dive is an IncrementalFiltering, so its
        # operations are the operations each dive compares.
        incremental = stateful.IncrementalFiltering
        patch(incremental, "setup", tracer.wrap("stateful.incremental", incremental.setup))
        patch(incremental, "branch_and_filter", tracer.counted(
            "stateful.dives", _op_kind(prog),
            tracer.wrap("stateful.incremental", incremental.branch_and_filter),
        ))
        solver_backed = minisolver.SolverBackedStateful
        for attr in ("setup", "branch_and_filter"):
            patch(solver_backed, attr,
                  tracer.wrap("minisolver.stateful", getattr(solver_backed, attr)))
        yield
