"""Property tests over random small algebras: one binary operation, plus
an optional unary operation and an optional constant, on two or three
elements.  Examples are derandomized, so every run checks the same ones."""

import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

import starcheck as sc

PROPERTY_SETTINGS = settings(
    derandomize=True, database=None, max_examples=60, deadline=None
)


@st.composite
def small_algebras(draw):
    n = draw(st.integers(2, 3))
    element = st.integers(0, n - 1)

    def table(arity):
        cells = n ** arity
        return tuple(draw(st.lists(element, min_size=cells, max_size=cells)))

    symbols, tables = [("op", 2)], [table(2)]
    if draw(st.booleans()):
        symbols.append(("u", 1))
        tables.append(table(1))
    if draw(st.booleans()):
        symbols.append(("c", 0))
        tables.append(table(0))
    return sc.FiniteAlgebra(sc.Signature(tuple(symbols)), n, tuple(tables))


def naive_closure(a, seed):
    """Apply every operation to every argument tuple until nothing new
    appears."""
    members = set(seed)
    while True:
        grown = members | {
            a.apply(sym, args)
            for sym, arity, _ in a.operations()
            for args in itertools.product(sorted(members), repeat=arity)
        }
        if grown == members:
            return frozenset(members)
        members = grown


@PROPERTY_SETTINGS
@given(small_algebras())
def test_enumeration_matches_brute_force(a):
    diag = sc.diagonal(a).mask
    expected = [
        mask
        for mask in range(1 << (a.size * a.size))
        if mask & diag == diag and sc.Relation(a, a, mask).verify_compatible()
    ]
    enum = sc.enumerate_reflexive_compatible(a)
    assert not enum.truncated
    assert [r.mask for r in enum.relations] == expected


@PROPERTY_SETTINGS
@given(small_algebras(), st.integers(1, 2), st.data())
def test_closure_over_closed_subuniverse(a, power, data):
    b = sc.direct_power(a, power)
    subsets = st.frozensets(st.integers(0, b.size - 1), max_size=3)
    closed = sc.subalgebra_closure(b, data.draw(subsets))
    seed = data.draw(subsets)
    grown = sc.subalgebra_closure(b, seed, closed=closed)
    assert grown == sc.subalgebra_closure(b, closed | seed)
    assert grown == naive_closure(b, closed | seed)
