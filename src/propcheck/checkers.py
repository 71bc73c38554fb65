"""Feasibility checkers: the ground-truth predicates constraints are derived from."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .domains import Assignment


@dataclass(frozen=True, eq=False)
class Checker:
    """A deterministic, side-effect-free predicate over complete assignments.

    Checkers compare and hash by identity: two checkers with the same arity
    and name may hold different predicates, and each has its own memo in
    the reference filters built on it.
    """

    arity: int
    predicate: Callable[[Assignment], bool]
    name: str = ""

    def __post_init__(self) -> None:
        if self.arity < 1:
            raise ValueError("checker arity must be >= 1")

    def __call__(self, assignment: Assignment) -> bool:
        return self.predicate(assignment)


def all_different(arity: int) -> Checker:
    """All variables take pairwise distinct values."""
    return Checker(arity, lambda a: len(set(a)) == len(a), name="alldiff")


def sum_equals(total: int, arity: int) -> Checker:
    """The values sum to `total`."""
    return Checker(arity, lambda a: sum(a) == total, name=f"sum={total}")
