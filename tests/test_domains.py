"""Core value types: construction, comparison primitives, ordering laws."""

import operator

import pytest
from hypothesis import given, strategies as st

from propcheck import (
    INCONSISTENT,
    ContractViolationError,
    Domain,
    Filtered,
    Instance,
    is_fixed,
    is_leaf,
    pointwise_equal,
    pointwise_subset,
)


def filtered(*lists):
    return Filtered(Instance.of(lists))


class TestDomain:
    def test_sorted_deduplicated(self):
        assert Domain([3, 1, 2, 1]).values == (1, 2, 3)

    def test_same_multiset_equal(self):
        assert Domain([2, 1, 1]) == Domain([1, 2])
        assert hash(Domain([2, 1])) == hash(Domain([1, 2]))
        d = Domain([5, -2, 9])
        assert Domain._from_sorted(d.values) == d
        assert hash(Domain._from_sorted(d.values)) == hash(d)

    def test_is_the_tuple_of_its_values(self):
        d = Domain([2, 1])
        assert isinstance(d, tuple) and not hasattr(d, "__dict__")
        assert d == (1, 2) and hash(d) == hash((1, 2))
        assert len(d) == 2 and list(d) == [1, 2]

    def test_32bit_range_enforced(self):
        Domain([-(2**31), 2**31 - 1])  # boundary is fine
        with pytest.raises(ValueError):
            Domain([2**31])
        with pytest.raises(ValueError):
            Domain([-(2**31) - 1])

    @pytest.mark.parametrize("value", [0.5, True, "a"])
    def test_non_integer_rejected(self, value):
        with pytest.raises(TypeError):
            Domain([1, value])
        with pytest.raises(TypeError):
            Instance.of([[value], [1, 2]])

    def test_membership_and_bounds(self):
        d = Domain([5, -2, 9])
        assert -2 in d and 5 in d and 3 not in d
        assert d.min() == -2 and d.max() == 9

    def test_empty_domain_has_no_bounds(self):
        with pytest.raises(ValueError):
            Domain().min()

    def test_remove(self):
        assert Domain([1, 2]).remove(1) == Domain([2])
        assert Domain([1, 2]).remove(7) == Domain([1, 2])


class TestInstance:
    def test_arity_and_size(self):
        inst = Instance.of([[1, 2], [3], [4, 5, 6]])
        assert inst.arity == 3
        assert inst.search_space_size() == 6

    def test_of_equals_construction_from_domains(self):
        a = Instance.of([[2, 1], [3]])
        b = Instance([Domain([1, 2]), Domain([3])])
        assert a == b and hash(a) == hash(b)
        assert a.domains == (Domain([1, 2]), Domain([3]))

    def test_unchecked_construction_equals_the_checked_one(self):
        # A filter builds its outcome from domains it already holds, which
        # need no check: the instance it gets is the one the constructor gives.
        doms = [Domain([1, 2]), Domain([3]), Domain._from_sorted([-1, 4])]
        a, b = Instance._from_domains(doms), Instance(doms)
        assert type(a) is Instance
        assert a == b and hash(a) == hash(b) and a.domains == tuple(doms)
        assert all(map(operator.is_, a, doms))

    def test_non_domain_rejected(self):
        with pytest.raises(TypeError):
            Instance([(1, 2)])
        with pytest.raises(TypeError):
            Instance([Domain([1]), [2]])

    def test_zero_arity_rejected(self):
        with pytest.raises(ValueError):
            Instance([])

    def test_member(self):
        inst = Instance.of([[1, 2], [3]])
        assert inst.member((1, 3))
        assert not inst.member((3, 3))
        assert not inst.member((1,))


class TestFiltered:
    def test_empty_domain_rejected(self):
        with pytest.raises(ValueError):
            Filtered(Instance([Domain([1]), Domain()]))


def test_reprs():
    # FilterAssertionError messages print these.
    assert repr(Domain([3, -1])) == "{-1, 3}"
    assert repr(Domain()) == "{}"
    inst = Instance.of([[1, 2], [5]])
    assert repr(inst) == "Instance[{1, 2}, {5}]"
    assert repr(Filtered(inst)) == "Filtered(Instance[{1, 2}, {5}])"
    assert repr(INCONSISTENT) == "Inconsistent"


class TestIsFixed:
    def test_singleton(self):
        assert is_fixed(Domain([3]))

    def test_pair(self):
        assert not is_fixed(Domain([1, 2]))

    def test_empty_is_not_fixed(self):
        assert not is_fixed(Domain())


class TestIsLeaf:
    def test_inconsistent(self):
        assert is_leaf(INCONSISTENT)

    def test_all_fixed(self):
        assert is_leaf(filtered([1], [4]))

    def test_unfixed(self):
        assert not is_leaf(filtered([1, 2], [4]))


class TestPointwiseEqual:
    def test_both_inconsistent(self):
        assert pointwise_equal(INCONSISTENT, INCONSISTENT)

    def test_equal_domains(self):
        assert pointwise_equal(filtered([1, 2]), filtered([1, 2]))

    def test_unequal_domains(self):
        assert not pointwise_equal(filtered([1, 2]), filtered([1]))

    def test_mixed(self):
        assert not pointwise_equal(filtered([1]), INCONSISTENT)

    def test_arity_mismatch(self):
        with pytest.raises(ContractViolationError):
            pointwise_equal(filtered([1]), filtered([1], [2]))

    def test_an_outcome_equals_itself_without_being_read(self):
        out = filtered([1])
        out.instance = None  # any read of the instance would raise
        assert pointwise_equal(out, out)


class TestPointwiseSubset:
    def test_inconsistent_is_bottom(self):
        assert pointwise_subset(INCONSISTENT, filtered([1, 2]))
        assert pointwise_subset(INCONSISTENT, INCONSISTENT)

    def test_filtered_not_below_inconsistent(self):
        assert not pointwise_subset(filtered([1]), INCONSISTENT)

    def test_inclusion(self):
        assert pointwise_subset(filtered([1]), filtered([1, 2]))
        assert not pointwise_subset(filtered([1, 2]), filtered([1]))

    def test_arity_mismatch(self):
        with pytest.raises(ContractViolationError):
            pointwise_subset(filtered([1]), filtered([1], [2]))


outcomes = st.one_of(
    st.just(INCONSISTENT),
    st.lists(
        st.lists(st.integers(-5, 5), min_size=1, max_size=3),
        min_size=2,
        max_size=2,
    ).map(lambda ls: filtered(*ls)),
)


@given(outcomes, outcomes)
def test_equal_iff_mutual_subset(a, b):
    assert pointwise_equal(a, b) == (
        pointwise_subset(a, b) and pointwise_subset(b, a)
    )


@given(outcomes, outcomes, outcomes)
def test_subset_is_transitive(a, b, c):
    if pointwise_subset(a, b) and pointwise_subset(b, c):
        assert pointwise_subset(a, c)


@given(outcomes)
def test_subset_is_reflexive(a):
    assert pointwise_subset(a, a)
