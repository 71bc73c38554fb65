"""Core value types: domains, instances, and filtering outcomes.

Everything here is immutable and safe to share. Inconsistency is a value
(`INCONSISTENT`), not an exception, so that outcome comparison is total.

`Domain` and `Instance` are validated, immutable tuples: a domain is the
tuple of its values and an instance the tuple of its domains, so equality,
hashing, length and membership are the tuple's own. `Domain(values)` rejects
a value that is not an `int` or is a `bool`, then sorts, deduplicates and
range-checks its input; every value that comes from outside the program
(the generator, CLI JSON, tests, user code) goes through it.
`Domain._from_sorted` skips those checks and is used only for values
derived from an existing `Domain` or solver variable, which are already
sorted, distinct and in range. `Instance(domains)` rejects arity 0
and any element that is not a `Domain`. `Instance._from_domains` skips
those checks and is used only for a filter's outcome built from the
domains of the instance it filtered, some replaced by `Domain`s derived
from them: a nonempty sequence of `Domain`s by construction.
"""

from __future__ import annotations

from itertools import repeat
from typing import Callable, Iterable, NamedTuple, Union

INT32_MIN = -(2**31)
INT32_MAX = 2**31 - 1

Assignment = tuple[int, ...]


class ContractViolationError(Exception):
    """A caller or a filter under test broke an interface contract."""


class _Validated:
    """The first base of a named tuple subclass that validates its values:
    its `_check` runs on every new value, from the constructor, `_make` or
    `_replace`."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        self._check()
        return self

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


class Domain(tuple):
    """A finite set of signed integers: a tuple of them in increasing order.

    Being a tuple, a domain equals (and hashes like) a plain tuple of the
    same values.
    """

    __slots__ = ()

    def __new__(cls, values: Iterable[int] = ()) -> "Domain":
        vs = list(values)
        for v in vs:
            if not isinstance(v, int) or isinstance(v, bool):
                raise TypeError(f"domain value is not an integer: {v!r}")
        vs = sorted(set(vs))
        if vs and (vs[0] < INT32_MIN or vs[-1] > INT32_MAX):
            raise ValueError(f"domain value outside signed 32-bit range: {vs[0]}..{vs[-1]}")
        return tuple.__new__(cls, vs)

    @classmethod
    def _from_sorted(cls, values: Iterable[int]) -> "Domain":
        """A domain over `values`, which must be sorted, distinct and in range."""
        return tuple.__new__(cls, values)

    @property
    def values(self) -> tuple[int, ...]:
        return self

    def __repr__(self) -> str:
        return "{%s}" % ", ".join(str(v) for v in self)

    def min(self) -> int:
        if not self:
            raise ValueError("empty domain has no minimum")
        return self[0]

    def max(self) -> int:
        if not self:
            raise ValueError("empty domain has no maximum")
        return self[-1]

    def issubset(self, other: "Domain") -> bool:
        return self is other or all(map(other.__contains__, self))

    def remove(self, v: int) -> "Domain":
        """A new domain without `v` (unchanged if absent)."""
        if v not in self:
            return self
        return Domain._from_sorted(x for x in self if x != v)


class Instance(tuple):
    """An ordered, fixed-arity tuple of domains; it too equals a plain tuple
    of the same domains."""

    __slots__ = ()

    def __new__(cls, domains: Iterable[Domain]) -> "Instance":
        ds = tuple.__new__(cls, domains)
        if not ds:
            raise ValueError("an instance needs arity >= 1")
        if not all(map(isinstance, ds, repeat(Domain))):
            raise TypeError("Instance expects Domain values")
        return ds

    @classmethod
    def _from_domains(cls, domains: Iterable[Domain]) -> "Instance":
        """An instance over `domains`, which must be `Domain`s, at least one."""
        return tuple.__new__(cls, domains)

    @classmethod
    def of(cls, lists: Iterable[Iterable[int]]) -> "Instance":
        return cls(Domain(vs) for vs in lists)

    @property
    def domains(self) -> tuple[Domain, ...]:
        return self

    @property
    def arity(self) -> int:
        return len(self)

    def search_space_size(self) -> int:
        size = 1
        for d in self:
            size *= len(d)
        return size

    def member(self, assignment: Assignment) -> bool:
        return len(assignment) == len(self) and all(v in d for v, d in zip(assignment, self))

    def pointwise_subset_of(self, other: "Instance") -> bool:
        if self is other:
            return True
        if self.arity != other.arity:
            raise ContractViolationError(
                f"arity mismatch: {self.arity} vs {other.arity}"
            )
        return all(map(Domain.issubset, self, other))

    def __repr__(self) -> str:
        return "Instance[%s]" % ", ".join(repr(d) for d in self)


class Filtered:
    """Successful filtering outcome; every domain is non-empty."""

    __slots__ = ("instance",)

    def __init__(self, instance: Instance) -> None:
        if not all(instance):
            raise ValueError("a Filtered outcome cannot contain an empty domain")
        self.instance = instance

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Filtered) and self.instance == other.instance

    def __hash__(self) -> int:
        return hash(("filtered", self.instance))

    def __repr__(self) -> str:
        return f"Filtered({self.instance!r})"


class _Inconsistent:
    __slots__ = ()
    _instance = None

    def __new__(cls) -> "_Inconsistent":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "Inconsistent"


INCONSISTENT = _Inconsistent()

FilterOutcome = Union[Filtered, _Inconsistent]


class Filter(NamedTuple):
    """A deterministic, contracting filtering algorithm."""

    arity: int
    apply: Callable[[Instance], FilterOutcome]
    name: str = ""


def is_fixed(d: Domain) -> bool:
    """True iff the domain holds exactly one value."""
    return len(d) == 1


def is_leaf(o: FilterOutcome) -> bool:
    """True iff nothing remains to branch on: inconsistent, or all fixed."""
    return o is INCONSISTENT or max(map(len, o.instance)) == 1


def _check_arity(a: FilterOutcome, b: FilterOutcome) -> None:
    if isinstance(a, Filtered) and isinstance(b, Filtered):
        if a.instance.arity != b.instance.arity:
            raise ContractViolationError(
                f"outcome arity mismatch: {a.instance.arity} vs {b.instance.arity}"
            )


def pointwise_equal(a: FilterOutcome, b: FilterOutcome) -> bool:
    if a is b:
        return True
    _check_arity(a, b)
    if a is INCONSISTENT or b is INCONSISTENT:
        return a is b
    return a.instance == b.instance


def pointwise_subset(a: FilterOutcome, b: FilterOutcome) -> bool:
    """Inclusion with Inconsistent as the bottom element."""
    _check_arity(a, b)
    if a is INCONSISTENT:
        return True
    if b is INCONSISTENT:
        return False
    return a.instance.pointwise_subset_of(b.instance)
