"""Feasibility checkers: the ground-truth predicates constraints are derived from."""

from __future__ import annotations

import functools
from typing import Callable

from .domains import Assignment


class Checker:
    """A deterministic, side-effect-free predicate over complete assignments.

    Checkers are immutable and compare and hash by identity: two checkers
    with the same arity and name may hold different predicates, and each
    has its own memo in the reference filters built on it, held in a
    `weakref.WeakKeyDictionary` keyed by the checker, so the memo lives as
    long as the checker. The bundled factories below share their checkers.
    """

    __slots__ = ("arity", "predicate", "name", "__weakref__")

    def __init__(
        self, arity: int, predicate: Callable[[Assignment], bool], name: str = ""
    ) -> None:
        if arity < 1:
            raise ValueError("checker arity must be >= 1")
        for attr, value in (("arity", arity), ("predicate", predicate), ("name", name)):
            object.__setattr__(self, attr, value)

    def __setattr__(self, attr: str, value: object) -> None:
        raise AttributeError(f"cannot assign to Checker.{attr}")

    def __delattr__(self, attr: str) -> None:
        raise AttributeError(f"cannot delete Checker.{attr}")

    def __repr__(self) -> str:
        return f"Checker(arity={self.arity!r}, predicate={self.predicate!r}, name={self.name!r})"


# How many checkers each bundled factory keeps alive for reuse.
SHARED_CHECKERS = 16


def all_different(arity: int) -> Checker:
    """All variables take pairwise distinct values.

    One shared checker per `arity`, of which the 16 (`SHARED_CHECKERS`)
    most recently used are kept, so the reference filters over it share one
    memo, solution table included, across commands and calls. A keyword
    call gets the same checker as a positional one.
    """
    return _all_different(arity)


def sum_equals(total: int, arity: int) -> Checker:
    """The values sum to `total`.

    One shared checker per `(total, arity)`, kept as `all_different` keeps
    its checkers. Equal arguments of different types, such as `True` and
    `1`, get different checkers, so a checker's name never depends on which
    call came first.
    """
    return _sum_equals(total, arity)


# The caches key the form of a call, so the public factories call them with
# positional arguments only.
@functools.lru_cache(maxsize=SHARED_CHECKERS, typed=True)
def _all_different(arity: int) -> Checker:
    return Checker(arity, lambda a: len(set(a)) == len(a), name="alldiff")


@functools.lru_cache(maxsize=SHARED_CHECKERS, typed=True)
def _sum_equals(total: int, arity: int) -> Checker:
    return Checker(arity, lambda a: sum(a) == total, name=f"sum={total}")
