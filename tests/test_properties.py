"""Property tests over random small algebras on two or three elements
and their squares (the clone rounds also on fixed 7-, 16- and 17-element
ones, square rows also on a fixed 17-element one, the term searches also
on corpus algebras, closures on a fixed 300-element one, congruence
lattices on fixed 9- and 16-element squares), over relations between
bare sets of one to four elements (up to sixteen for opposites), and
over stacks of up to eight masks on one to five elements.  Examples are
derandomized, so every run checks the same ones."""

import dataclasses
import itertools
import random

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import starcheck as sc
from starcheck import cli
from starcheck.algebra import (
    _closure_rounds,
    _closure_rows,
    _encode,
    _induced_tables,
    _join_partitions,
)
from starcheck.checkers import PermutabilityWitness, SymmetryWitness
from starcheck.contexts import resolve_base
from starcheck.relations import (
    _compose_masks,
    _compose_star_sides,
    _graph_masks,
    _inverse_image_star_sides,
    _pull_back_mask,
    _pull_back_stack,
    _stack_masks,
)
from starcheck.terms import App, Var, _clone_closure, term_text, variable_name

from conftest import (
    all_maps,
    all_partitions,
    compatible_partition,
    empty_set_algebra,
    load_algebra,
    ring_algebra,
)

PROPERTY_SETTINGS = settings(
    derandomize=True, database=None, max_examples=60, deadline=None
)


@st.composite
def small_algebras(draw):
    """One binary operation, plus an optional unary operation and an
    optional constant."""
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


@st.composite
def commuting_algebras(draw):
    """One or two binary operations, each made commutative (its table
    read at (min(x, y), max(x, y))) or left as drawn, plus an optional
    unary operation and an optional constant.  A drawn 3-element table
    commutes with probability 1/27 only."""
    n = draw(st.integers(2, 3))
    element = st.integers(0, n - 1)
    symbols, tables = [], []
    for i in range(draw(st.integers(1, 2))):
        table = draw(st.lists(element, min_size=n * n, max_size=n * n))
        if draw(st.booleans()):
            table = [table[min(x, y) * n + max(x, y)] for x in range(n) for y in range(n)]
        symbols.append((f"op{i}", 2))
        tables.append(tuple(table))
    for symbol, arity in (("u", 1), ("c", 0)):
        if draw(st.booleans()):
            symbols.append((symbol, arity))
            tables.append(tuple(draw(st.lists(element, min_size=n**arity, max_size=n**arity))))
    return sc.FiniteAlgebra(sc.Signature(tuple(symbols)), n, tuple(tables))


@st.composite
def mixed_algebras(draw, arities=None):
    """One to three operations, each of arity 0 to 3, unless the arities
    are given."""
    n = draw(st.integers(2, 3))
    if arities is None:
        arities = draw(st.lists(st.integers(0, 3), min_size=1, max_size=3))
    element = st.integers(0, n - 1)
    tables = tuple(
        tuple(draw(st.lists(element, min_size=n**k, max_size=n**k)))
        for k in arities
    )
    symbols = tuple((f"f{i}", k) for i, k in enumerate(arities))
    return sc.FiniteAlgebra(sc.Signature(symbols), n, tables)


@st.composite
def algebra_pairs(draw):
    """Two algebras of one signature."""
    a = draw(mixed_algebras())
    return a, draw(mixed_algebras([k for _, k in a.signature.symbols]))


def brute_force_reflexive(a):
    """Masks of every reflexive compatible relation on a, ascending."""
    diag = sc.diagonal(a).mask
    return [
        mask
        for mask in range(1 << (a.size * a.size))
        if mask & diag == diag and sc.Relation(a, a, mask).verify_compatible()
    ]


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
    enum = sc.enumerate_reflexive_compatible(a)
    assert not enum.truncated
    assert [r.mask for r in enum.relations] == brute_force_reflexive(a)


@settings(derandomize=True, database=None, max_examples=12, deadline=None)
@given(st.lists(st.integers(0, 1), min_size=4, max_size=4))
def test_enumeration_on_squares_matches_brute_force(table):
    # on most of these 4-element squares the union of two reflexive
    # compatible relations is not compatible, so this exercises the join
    # step; 4096 = 2**12 relations fit, so nothing is truncated
    a = sc.FiniteAlgebra(sc.Signature((("op", 2),)), 2, (tuple(table),))
    square = sc.direct_power(a, 2)
    enum = sc.enumerate_reflexive_compatible(square, budget=4096)
    assert not enum.truncated
    assert [r.mask for r in enum.relations] == brute_force_reflexive(square)


@pytest.mark.parametrize("n, k", [(2, 1), (2, 2), (3, 1)])
def test_enumeration_on_meet_semilattice_powers_matches_brute_force(n, k):
    # the meet of two pairs has a smaller code, so a closure generates
    # pairs whose principals are known; those principals nest, and many
    # are strictly smaller than the principal being closed
    chain = sc.FiniteAlgebra(
        sc.Signature((("meet", 2),)), n,
        (tuple(min(x, y) for x in range(n) for y in range(n)),),
    )
    power = sc.direct_power(chain, k)
    enum = sc.enumerate_reflexive_compatible(power, budget=4096)
    assert not enum.truncated
    assert [r.mask for r in enum.relations] == brute_force_reflexive(power)


def reference_enumeration(a, budget):
    """The enumeration as first written: close the principal of every pair
    in full, keep the distinct ones in order of their first pair, then
    join-close them.  Returns (ascending masks, truncated)."""
    square = sc.direct_power(a, 2, budget=a.size * a.size)
    diag = sc.subalgebra_closure(square, (x * a.size + x for x in a.carrier))
    principals = list(dict.fromkeys(
        sc.subalgebra_closure(square, diag | {p})
        for p in range(square.size)
        if p not in diag
    ))
    found, seen = [diag], {diag}

    def admit(r):
        if r in seen:
            return True
        if len(found) >= budget:
            return False
        seen.add(r)
        found.append(r)
        return True

    truncated = not all(admit(p) for p in principals)
    i = 1
    while not truncated and i < len(found):
        r = found[i]
        i += 1
        for p in principals:
            if p <= r or r | p in seen:
                continue
            if not admit(sc.subalgebra_closure(square, r | p)):
                truncated = True
                break
    return sorted(sum(1 << q for q in state) for state in found), truncated


@settings(derandomize=True, database=None, max_examples=30, deadline=None)
@given(mixed_algebras(), st.data())
def test_enumeration_on_squares_matches_reference(a, data):
    # a truncated run keeps the first relations in principal and join
    # order, so budgets of 1 to 20 pin that order.  Only 2-element bases
    # also run unbounded (every reflexive relation on the 4-element square
    # fits): on a 3-element base with only constants, all 2**72 reflexive
    # relations on the 9-element square are compatible.  30 examples,
    # since the reference closes every principal of an 81-element square
    # in full
    square = sc.direct_power(a, 2)
    budgets = st.integers(1, 20)
    if a.size == 2:
        budgets |= st.just(2 ** (square.size * (square.size - 1)))
    budget = data.draw(budgets)
    enum = sc.enumerate_reflexive_compatible(square, budget=budget)
    masks = [r.mask for r in enum.relations]
    assert (masks, enum.truncated) == reference_enumeration(square, budget)


def seventeen_point_algebra():
    """17 points, so that its square has 289, more than a byte's codes:
    a constant, a unary and a binary operation modulo 17."""
    n = 17
    signature = sc.Signature((("c", 0), ("u", 1), ("f", 2)))
    tables = (
        (3,),
        tuple((5 * x + 1) % n for x in range(n)),
        tuple((x * y + 2 * x) % n for x in range(n) for y in range(n)),
    )
    return sc.FiniteAlgebra(signature, n, tables)


def closure_rows_view(rows):
    """What `_closure_rounds` reads of cut rows, the functions left out:
    the size, the constants and, per step of the plan, the kinds of the
    prefix and of the last argument and the whole tuple of rows."""
    size, constants, plan, _, _ = rows
    return size, constants, [(get.__self__, prefix, last) for get, prefix, last in plan]


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(mixed_algebras())
@example(seventeen_point_algebra())
def test_square_rows_match_rows_of_direct_power(a):
    # arities 0 to 3 on 4- and 9-point squares (byte rows), and the
    # 289-point square of the example (tuple rows).  direct_power builds
    # its tables from the same product rows, so the square is also checked
    # entry by entry
    square = sc.direct_power(a, 2, budget=a.size ** 2)
    assert square.tables == naive_power(a, 2)
    rows = _closure_rows(a, square=True)
    assert closure_rows_view(rows) == closure_rows_view(_closure_rows(square))


@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(mixed_algebras(), st.booleans())
@example(load_algebra("monoid01"), True)
def test_audit_symmetry_suites_match_public_checkers(a, squared):
    # squares of 2-element algebras have up to 4096 reflexive relations,
    # and the audit keeps the first 1024
    if squared and a.size == 2:
        a = sc.direct_power(a, 2)
    for algebra, ctx in (
        (a, sc.ProtoPointed()),
        (a, sc.Total()),
        (with_fixed_point(a, 0), sc.Pointed(0)),
    ):
        report = sc.audit_algebra(ctx, algebra)
        left, full = [], []
        for r in sc.enumerate_reflexive_compatible(algebra).relations:
            lv, fv = sc.is_left_star_symmetric(ctx, r), sc.is_star_symmetric(ctx, r)
            if not lv.holds:
                left.append(SymmetryWitness(r, lv.witness))
            if not fv.holds:
                full.append(SymmetryWitness(r, fv.witness, fv.from_opposite))
        assert report.condition("reflexive-left-star-symmetric").witnesses == tuple(left)
        assert report.condition("reflexive-star-symmetric").witnesses == tuple(full)


def public_permutability_witnesses(ctx, a):
    """Suite 1's witnesses built from `check_star_permutes` over every
    ordered pair of congruences, first outer, and how many it examined."""
    congruences = sc.all_congruences(a)
    relations = [sc.congruence_relation(c) for c in congruences]
    witnesses = [
        PermutabilityWitness(first, second, verdict.witness)
        for first, r in zip(congruences, relations)
        for second, s in zip(congruences, relations)
        if not (verdict := sc.check_star_permutes(ctx, r, s)).holds
    ]
    return tuple(witnesses), len(congruences) ** 2


def assert_permutability_suites_match_public_checker(ctx, a):
    report = sc.audit_algebra(ctx, a)
    expected = public_permutability_witnesses(ctx, a)
    for key in ("congruence-pairs-star-permute", "equivalence-pairs-star-permute"):
        cond = report.condition(key)
        assert (cond.witnesses, cond.examined) == expected
    return expected


@PROPERTY_SETTINGS
@given(mixed_algebras(), st.integers(0, 2))
@example(load_algebra("set3"), 0)
def test_audit_permutability_suites_match_public_checker(a, base):
    base %= a.size
    assert_permutability_suites_match_public_checker(sc.Total(), a)
    assert_permutability_suites_match_public_checker(sc.ProtoPointed(), a)
    assert_permutability_suites_match_public_checker(
        sc.Pointed(base), with_fixed_point(a, base)
    )


def test_audit_permutability_suites_on_chain_lattice():
    """The 8-element chain lattice with its bottom as the constant bot:
    128 congruences, 5,334 of whose ordered pairs fail under pointed:bot."""
    n = 8
    meet = tuple(min(x, y) for x in range(n) for y in range(n))
    join = tuple(max(x, y) for x in range(n) for y in range(n))
    signature = sc.Signature((("bot", 0), ("meet", 2), ("join", 2)))
    lattice = sc.FiniteAlgebra(signature, n, ((0,), meet, join), "lattice8")
    witnesses, examined = assert_permutability_suites_match_public_checker(
        sc.Pointed("bot"), lattice
    )
    assert (len(witnesses), examined) == (5334, 128 ** 2)


@PROPERTY_SETTINGS
@given(small_algebras(), st.integers(1, 2), st.data())
def test_closure_over_closed_subuniverse(a, power, data):
    b = sc.direct_power(a, power)
    subsets = st.frozensets(st.integers(0, b.size - 1), max_size=3)
    closed = sc.subalgebra_closure(b, data.draw(subsets))
    seed = data.draw(subsets)
    grown = closed.union(*_closure_rounds(_closure_rows(b), set(seed), closed))
    assert grown == sc.subalgebra_closure(b, closed | seed)
    assert grown == naive_closure(b, closed | seed)



def product_loop_values(table, size, choices):
    """Values of a flat table on every argument tuple drawn from the
    product of the per-position choices, cell by cell: the closure
    kernel's loop before it gathered table rows."""
    offsets = [0]
    for choice in choices[:-1]:
        offsets = [(o + x) * size for o in offsets for x in choice]
    return {table[o + x] for o in offsets for x in choices[-1]}


def reference_closure_rounds(a, seed, closed):
    """The rounds of the closure of seed over closed, by
    `product_loop_values`: the first position holding a new element
    ranges over the new ones, earlier positions over the old ones and
    later positions over all of them."""
    fresh = set(seed)
    positive = []
    for _, arity, table in a.operations():
        if arity == 0:
            fresh.add(table[0])
        else:
            positive.append((arity, table))
    members = list(closed)
    seen = set(closed)
    fresh -= seen
    while fresh:
        yield fresh
        seen |= fresh
        old, new = members, list(fresh)
        members = old + new
        fresh = set()
        for arity, table in positive:
            for i in range(arity):
                choices = [old] * i + [new] + [members] * (arity - 1 - i)
                fresh |= product_loop_values(table, a.size, choices)
        fresh -= seen


@PROPERTY_SETTINGS
@given(mixed_algebras(), st.integers(1, 2), st.data())
def test_closure_rounds_match_product_loop(a, power, data):
    # arities 0 to 3, on the algebra and on its square (up to 9 points).
    # Every point outside `closed` seeds a closure, since random seeds
    # mostly lie in it or close in one round
    b = sc.direct_power(a, power)
    subsets = st.frozensets(st.integers(0, b.size - 1), max_size=3)
    closed = sc.subalgebra_closure(b, data.draw(subsets))
    rows = _closure_rows(b)
    for p in sorted(set(range(b.size)) - closed):
        rounds = list(_closure_rounds(rows, {p}, closed))
        assert rounds == list(reference_closure_rounds(b, {p}, closed))
        assert closed.union(*rounds) == naive_closure(b, closed | {p})


@PROPERTY_SETTINGS
@given(commuting_algebras(), st.integers(1, 2), st.data())
def test_closure_rounds_with_commutative_operations_match_product_loop(a, power, data):
    # the reference applies every argument position, also (old, new) of a
    # commutative operation, which the plan leaves out; the square's rows
    # are built from a's, as the enumeration builds them.  Every point
    # outside `closed` seeds a closure, since random seeds mostly lie in
    # it or close in one round
    b = sc.direct_power(a, power)
    rows = _closure_rows(a, square=power == 2)
    point = st.integers(0, b.size - 1)
    closed = sc.subalgebra_closure(b, data.draw(st.sets(point, max_size=1)))
    for p in sorted(set(range(b.size)) - closed):
        rounds = list(_closure_rounds(rows, {p}, closed))
        assert rounds == list(reference_closure_rounds(b, {p}, closed))


@PROPERTY_SETTINGS
@given(commuting_algebras())
def test_enumeration_with_commutative_operations_matches_brute_force(a):
    enum = sc.enumerate_reflexive_compatible(a)
    assert not enum.truncated
    assert [r.mask for r in enum.relations] == brute_force_reflexive(a)


def wide_algebra():
    """300 points, more than a byte's codes: the constant 0, doubling and
    x + 2y modulo 300, whose subuniverses include the multiples of each
    divisor of 300."""
    n = 300
    signature = sc.Signature((("c", 0), ("u", 1), ("f", 2)))
    tables = (
        (0,),
        tuple(2 * x % n for x in range(n)),
        tuple((x + 2 * y) % n for x in range(n) for y in range(n)),
    )
    return sc.FiniteAlgebra(signature, n, tables)


@pytest.mark.parametrize(
    "closed_seed, seed", [((), (1,)), ((100,), (15,)), ((150,), (100,)), ((150,), (6, 299))]
)
def test_closure_rounds_on_wide_carrier(closed_seed, seed):
    # the tuple-row path; a one-element batch too (100 over {0, 150})
    a = wide_algebra()
    closed = naive_closure(a, closed_seed)
    rounds = list(_closure_rounds(_closure_rows(a), set(seed), closed))
    assert rounds == list(reference_closure_rounds(a, set(seed), closed))
    assert closed.union(*rounds) == naive_closure(a, closed | set(seed))
    assert sc.subalgebra_closure(a, closed | set(seed)) == closed.union(*rounds)

def _decode(idx, size, length):
    """The argument tuple with lexicographic code idx."""
    out = [0] * length
    for i in range(length - 1, -1, -1):
        out[i] = idx % size
        idx //= size
    return tuple(out)


def reference_clone_rounds(a, n, budget):
    """The clone round loop as first written: scan every argument tuple
    over the round's snapshot, skip the all-old ones, evaluate cell by
    cell.  Yields ([(table, term_text), ...], complete, exhausted)."""
    size = a.size
    tab_len = size**n
    max_elements = budget // tab_len
    elements, index = [], set()
    exhausted = False

    def insert(table, term):
        nonlocal exhausted
        if table in index:
            return
        if len(elements) >= max_elements:
            exhausted = True
            return
        index.add(table)
        elements.append((table, term))

    def rendered():
        return [(table, term_text(term)) for table, term in elements]

    for i in range(n):
        insert(tuple(_decode(idx, size, n)[i] for idx in range(tab_len)), Var(i))
    for sym, arity, table in a.operations():
        if arity == 0:
            insert((table[0],) * tab_len, App(sym, ()))
    yield rendered(), False, exhausted
    frontier = 0
    while not exhausted:
        snapshot = len(elements)
        for sym, arity, table in a.operations():
            if arity == 0:
                continue
            for combo in itertools.product(range(snapshot), repeat=arity):
                if all(c < frontier for c in combo):
                    continue
                args = [elements[c][0] for c in combo]
                result = tuple(
                    table[_encode((arg[p] for arg in args), size)]
                    for p in range(tab_len)
                )
                insert(result, App(sym, tuple(elements[c][1] for c in combo)))
                if exhausted:
                    break
            if exhausted:
                break
        if len(elements) == snapshot and not exhausted:
            yield rendered(), True, False
            return
        frontier = snapshot
        yield rendered(), False, exhausted
    yield rendered(), False, True


def seeded_operation_algebra(size, arity):
    """One operation of the given arity with a seeded random table."""
    rng = random.Random(size * 10 + arity)
    table = tuple(rng.randrange(size) for _ in range(size**arity))
    return sc.FiniteAlgebra(sc.Signature((("f", arity),)), size, (table,))


def with_wide_cells(test):
    """Explicit examples whose operation tables have 256 cells (the most
    that one byte indexes), 289 and 343 cells, each at budgets of 1 to 20
    unary elements."""
    for size, arity in ((16, 2), (17, 2), (7, 3)):
        a = seeded_operation_algebra(size, arity)
        for max_elements in range(1, 21):
            test = example(a, 1, max_elements)(test)
    return test


@PROPERTY_SETTINGS
@with_wide_cells
@given(mixed_algebras(), st.integers(1, 2), st.integers(1, 20))
def test_clone_rounds_match_reference(a, n, max_elements):
    # budgets of 1 to 20 elements: small ones run out inside a round, and
    # some inside one argument prefix's batch.  The closure returns the
    # reference's last state; cut at the size of each earlier round's end,
    # it returns that round's elements.
    tab_len = a.size**n

    def closure(budget):
        # settled sees each table as inserted: the returned one, in order
        calls = []
        elements, complete = _clone_closure(
            a, n, budget, lambda index, table: calls.append((index, list(table)))
        )
        assert calls == [(index, list(table)) for index, (table, _) in enumerate(elements)]
        return [(tuple(table), term_text(term)) for table, term in elements], complete

    *earlier, (elements, complete, _) = reference_clone_rounds(a, n, max_elements * tab_len)
    assert closure(max_elements * tab_len) == (elements, complete)
    for round_elements, _, _ in earlier:
        assert closure(len(round_elements) * tab_len)[0] == round_elements


def reference_search(a, arity, budget, accepts):
    """The term search as first written: after each round of
    `reference_clone_rounds`, test every element against every target
    still missing; ``accepts`` maps keys to table predicates.  Returns
    (status, {key: (index, term text, table)}, clone size, complete)."""
    found = {}
    clone, complete = [], False
    for clone, complete, exhausted in reference_clone_rounds(a, arity, budget):
        for index, (table, text) in enumerate(clone):
            for key, holds in accepts.items():
                if key not in found and holds(table):
                    found[key] = (index, text, table)
        if len(found) == len(accepts) or complete or exhausted:
            break
    if len(found) == len(accepts):
        status = "found"
    else:
        status = "absent" if complete else "inconclusive"
    return status, found, len(clone), complete


def subtractive_at(e, n):
    return lambda t: all(t[x * n + x] == e and t[x * n + e] == x for x in range(n))


def maltsev_for(n):
    return lambda t: all(
        t[(x * n + x) * n + y] == y and t[(x * n + y) * n + y] == x
        for x in range(n)
        for y in range(n)
    )


def with_corpus_witnesses(test):
    """Explicit examples on corpus algebras whose searches find their
    last witness within 20 elements (random tables rarely do), each at
    budgets of 1 to 20 elements."""
    runs = [(name, "e-subtractive") for name in ("bool2", "heyt2", "ringZ2xZ2")]
    runs += [(name, kind) for name in ("ringZ2", "groupZ2")
             for kind in ("e-subtractive", "maltsev")]
    for name, kind in runs:
        a = load_algebra(name)
        for max_elements in range(1, 21):
            test = example(a, kind, max_elements)(test)
    return test


@PROPERTY_SETTINGS
@with_corpus_witnesses
@given(
    mixed_algebras().filter(lambda a: any(k == 0 for _, k in a.signature.symbols)),
    st.sampled_from(["e-subtractive", "maltsev"]),
    st.integers(1, 20),
)
def test_term_search_matches_round_granular_reference(a, kind, max_elements):
    # budgets of 1 to 20 elements: the search stops at the element that
    # completes it, where the reference finishes that element's round
    arity = 3 if kind == "maltsev" else 2
    budget = max_elements * a.size**arity
    if kind == "maltsev":
        accepts = {"p": maltsev_for(a.size)}
        result = sc.find_maltsev_term(a, budget=budget)
        terms = {} if result.term is None else {"p": result.term}
    else:
        targets = sorted(sc.constants_subalgebra(a))
        accepts = {e: subtractive_at(e, a.size) for e in targets}
        result = sc.find_e_subtractive_terms(a, budget=budget)
        terms = dict(result.terms)
    status, found, size, complete = reference_search(a, arity, budget, accepts)
    assert result.status.value == status
    assert {key: (op.text, op.table) for key, op in terms.items()} == {
        key: (text, table) for key, (_, text, table) in found.items()
    }
    assert result.complete == complete
    if status == "found":
        size = 1 + max(index for index, _, _ in found.values())
    assert result.clone_size == size


@st.composite
def algebras_with_terms(draw):
    """An algebra, an arity and a term over it, built bottom-up from a
    pool so that subterms are shared."""
    a = draw(mixed_algebras())
    arity = draw(st.integers(1, 3))
    pool = [Var(i) for i in range(arity)]
    pool += [App(sym, ()) for sym, k, _ in a.operations() if k == 0]
    positive = [(sym, k) for sym, k, _ in a.operations() if k > 0]
    for _ in range(draw(st.integers(0, 8)) if positive else 0):
        sym, k = draw(st.sampled_from(positive))
        args = draw(st.lists(st.sampled_from(pool), min_size=k, max_size=k))
        pool.append(App(sym, tuple(args)))
    return a, arity, draw(st.sampled_from(pool))


def naive_value(term, a, assignment):
    if isinstance(term, Var):
        return assignment[term.index]
    return a.apply(term.symbol, tuple(naive_value(t, a, assignment) for t in term.args))


@PROPERTY_SETTINGS
@given(algebras_with_terms())
def test_term_table_matches_naive_evaluator(case):
    a, arity, term = case
    expected = tuple(
        naive_value(term, a, assignment)
        for assignment in itertools.product(a.carrier, repeat=arity)
    )
    assert sc.term_table(term, a, arity) == expected


@st.composite
def identity_cases(draw):
    """A candidate term operation of arity 0 to 2, a name for it (possibly
    a signature symbol's), and one to three identities over it as
    (text, lhs, rhs).  Sides are trees of ("var", index), ("lit", value),
    ("op", symbol, args) and ("t", args), drawn only where the text
    resolves to them: ``name(...)`` always names the candidate, and a bare
    name is a variable, else the candidate if it is nullary, else a
    nullary signature symbol."""
    a = draw(mixed_algebras())
    t_arity = draw(st.integers(0, 2))
    constants = [App(sym, ()) for sym, k, _ in a.operations() if k == 0]
    pool = [Var(i) for i in range(t_arity)] + constants
    if not pool:
        t_arity, pool = 1, [Var(0)]
    positive = [(sym, k) for sym, k, _ in a.operations() if k > 0]
    for _ in range(draw(st.integers(0, 3)) if positive else 0):
        sym, k = draw(st.sampled_from(positive))
        args = draw(st.lists(st.sampled_from(pool), min_size=k, max_size=k))
        pool.append(App(sym, tuple(args)))
    term = draw(st.sampled_from(pool))
    t = sc.TermOperation(a, t_arity, sc.term_table(term, a, t_arity), term)
    symbol = draw(st.sampled_from(["s"] + [sym for sym, _ in a.signature.symbols]))
    ops = [
        (sym, k)
        for sym, k, _ in a.operations()
        if sym != symbol or (k == 0 and t_arity > 0)
    ]
    count = draw(st.integers(0, 3))
    variables = sorted(draw(st.permutations(range(3)))[:count])
    leaves = [
        kind
        for kind in (
            [("var", v) for v in variables],
            [("lit", value) for value in a.carrier],
            [("op", sym, ()) for sym, k in ops if k == 0],
            [("t", ())] if t_arity == 0 else [],
        )
        if kind
    ]
    branches = [(sym, k) for sym, k in ops if k > 0]
    if t_arity > 0:
        branches.append((None, t_arity))

    def side(depth):
        if depth == 0 or not branches or draw(st.booleans()):
            return draw(st.sampled_from(draw(st.sampled_from(leaves))))
        sym, k = draw(st.sampled_from(branches))
        args = tuple(side(depth - 1) for _ in range(k))
        return ("t", args) if sym is None else ("op", sym, args)

    def text(node):
        if node[0] == "var":
            return variable_name(node[1])
        if node[0] == "lit":
            return str(node[1])
        name, args = (symbol, node[1]) if node[0] == "t" else node[1:]
        return f"{name}({', '.join(map(text, args))})" if args else name

    identities = []
    for _ in range(draw(st.integers(1, 3))):
        lhs = side(2)
        rhs = lhs if draw(st.integers(0, 3)) == 0 else side(2)
        identities.append((f"{text(lhs)} = {text(rhs)}", lhs, rhs))
    return t, symbol, identities


def pointwise_value(node, t, values):
    if node[0] == "var":
        return values[node[1]]
    if node[0] == "lit":
        return node[1]
    if node[0] == "t":
        args = tuple(pointwise_value(c, t, values) for c in node[1])
        return t.table[_encode(args, t.algebra.size)]
    _, sym, children = node
    args = tuple(pointwise_value(c, t, values) for c in children)
    return t.algebra.apply(sym, args)


def pointwise_verdict(t, identities):
    """(holds, identity, assignment) by evaluating both sides at every
    assignment to their variables, in lexicographic order."""

    def variables(node):
        if node[0] == "var":
            return {node[1]}
        if node[0] == "lit":
            return set()
        return set().union(*map(variables, node[-1]))

    for text, lhs, rhs in identities:
        names = sorted(variables(lhs) | variables(rhs))
        for combo in itertools.product(t.algebra.carrier, repeat=len(names)):
            values = dict(zip(names, combo))
            if pointwise_value(lhs, t, values) != pointwise_value(rhs, t, values):
                assignment = tuple((variable_name(v), values[v]) for v in names)
                return False, text, assignment
    return True, None, None


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(identity_cases())
def test_verify_term_identities_matches_pointwise_evaluation(case):
    t, symbol, identities = case
    verdict = sc.verify_term_identities(t, [text for text, _, _ in identities], symbol)
    expected = pointwise_verdict(t, identities)
    assert (verdict.holds, verdict.identity, verdict.assignment) == expected


@PROPERTY_SETTINGS
@given(mixed_algebras(), st.data())
def test_endomorphism_search_matches_brute_force(a, data):
    maps = [f.map for f in all_maps(a, a)]
    everything = {x: a.carrier for x in a.carrier}
    # the most nodes a search on a.size elements can take
    most = sum(a.size**k for k in range(1, a.size + 1))
    search = sc.HomomorphismSearch(a, a, everything, most)
    assert list(search) == maps
    base = data.draw(st.sampled_from(a.carrier))
    fixed = sc.HomomorphismSearch(a, a, {**everything, base: (base,)}, most)
    assert list(fixed) == [m for m in maps if m[base] == base]
    # the budget is spent exactly when a search needs more nodes
    assert list(sc.HomomorphismSearch(a, a, everything, search.nodes)) == maps
    with pytest.raises(sc.BudgetError):
        list(sc.HomomorphismSearch(a, a, everything, search.nodes - 1))


def least_compatible_partition(a, x, y):
    """The compatible partition relating x and y that refines every other
    one, from the multi-argument oracle."""
    candidates = [
        p for p in all_partitions(a.size)
        if p[x] == p[y] and compatible_partition(a, p)
    ]
    least = [
        p for p in candidates
        if all(q[i] == q[p[i]] for q in candidates for i in a.carrier)
    ]
    assert len(least) == 1
    return least[0]


@PROPERTY_SETTINGS
@given(mixed_algebras())
def test_congruences_match_partition_filter(a):
    compatible = {p for p in all_partitions(a.size) if compatible_partition(a, p)}
    assert {c.partition for c in sc.all_congruences(a)} == compatible
    for x, y in itertools.combinations(a.carrier, 2):
        generated = sc.congruence_generated(a, [(x, y)]).partition
        assert generated == least_compatible_partition(a, x, y)



def reference_all_congruences(a):
    """The congruence lattice with every principal congruence generated in
    full, then join-closed as `all_congruences` does."""
    discrete = sc.congruence_generated(a, ())
    found = {discrete.partition: discrete}
    for pair in itertools.combinations(a.carrier, 2):
        c = sc.congruence_generated(a, [pair])
        found.setdefault(c.partition, c)
    principals = list(found)[1:]
    worklist = list(principals)
    while worklist:
        p = worklist.pop()
        for q in principals:
            j = _join_partitions(p, q)
            if j not in found:
                found[j] = sc.Congruence(a, j)
                worklist.append(j)
    return tuple(found[p] for p in sorted(found, reverse=True))


@PROPERTY_SETTINGS
@given(mixed_algebras())
def test_early_stopping_congruences_match_reference(a):
    # on the base and on its square: up to 9 points, so up to 36 principal
    # congruences, most of them stopped at an earlier pair's.  The base
    # runs too: a principal stopped at a smaller one is lost unless a join
    # restores it, which on these squares it mostly does.  A square with
    # many distinct principals is skipped, since its lattice may be huge:
    # a bare 9-point set has 36 and 21,147 congruences, which take minutes
    # to join-close
    square = sc.direct_power(a, 2)
    principals = {
        sc.congruence_generated(square, [pair]).partition
        for pair in itertools.combinations(square.carrier, 2)
    }
    assume(len(principals) <= 12)
    for b in (a, square):
        assert sc.all_congruences(b, b.size) == reference_all_congruences(b)


@pytest.mark.parametrize(
    "base", [load_algebra("ringZ4"), ring_algebra(3), load_algebra("bool4")],
    ids=["ringZ4^2", "ringZ3^2", "bool4^2"],
)
def test_early_stopping_congruences_on_fixed_squares(base):
    square = sc.direct_power(base, 2)
    assert sc.all_congruences(square, square.size) == reference_all_congruences(square)

@PROPERTY_SETTINGS
@given(mixed_algebras())
def test_congruence_rejects_exactly_incompatible_partitions(a):
    for p in all_partitions(a.size):
        if compatible_partition(a, p):
            assert sc.Congruence(a, p).partition == p
        else:
            with pytest.raises(ValueError, match="not compatible"):
                sc.Congruence(a, p)


def with_fixed_point(a, base):
    """a with every operation sending (base, ..., base) to base, so that
    base is a one-element subalgebra and pointed:base is admissible."""
    tables = []
    for _, arity, table in a.operations():
        i = _encode((base,) * arity, a.size)
        tables.append(table[:i] + (base,) + table[i + 1:])
    return sc.FiniteAlgebra(a.signature, a.size, tuple(tables))


@PROPERTY_SETTINGS
@given(mixed_algebras(), st.data())
def test_star_matches_pullback_route(a, data):
    base = data.draw(st.integers(0, a.size - 1))
    cases = (
        (a, sc.Total()),
        (a, sc.ProtoPointed()),
        (with_fixed_point(a, base), sc.Pointed(base)),
    )
    for algebra, ctx in cases:
        enum = sc.enumerate_reflexive_compatible(algebra)
        assert not enum.truncated
        for r in enum.relations:
            assert sc.star(ctx, r) == sc.star_via_pullback(ctx, r)


def naive_power(a, k):
    """Tables of the k-th power entry by entry: decode the arguments,
    apply the operation in each coordinate, encode the result."""
    size = a.size**k
    tables = []
    for sym, arity, _ in a.operations():
        entries = []
        for args in itertools.product(range(size), repeat=arity):
            coords = [_decode(x, a.size, k) for x in args]
            value = [a.apply(sym, tuple(c[i] for c in coords)) for i in range(k)]
            entries.append(_encode(value, a.size))
        tables.append(tuple(entries))
    return tuple(tables)


@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(mixed_algebras(), st.integers(1, 3))
def test_direct_power_matches_coordinatewise_reference(a, k):
    assert sc.direct_power(a, k).tables == naive_power(a, k)


@PROPERTY_SETTINGS
@given(
    st.lists(st.integers(0, 3), min_size=1, max_size=3),
    st.from_regex(r"[A-Za-z_][A-Za-z0-9_^.+-]*", fullmatch=True),
    st.data(),
)
def test_algebra_document_round_trip(arities, name, data):
    # a document lists constants first, so only such signatures come back
    # in order; an unnamed algebra writes a bare `algebra` line
    a = dataclasses.replace(data.draw(mixed_algebras(sorted(arities, key=bool))), name=name)
    parsed = sc.parse_algebra(sc.serialize_algebra(a))
    assert parsed == a and parsed.name == name


def naive_commutation_violation(a, b, m):
    """Scan every operation and argument tuple in order for the first
    place where m fails to commute."""
    for sym, arity, _ in a.operations():
        for args in itertools.product(a.carrier, repeat=arity):
            if m[a.apply(sym, args)] != b.apply(sym, tuple(m[x] for x in args)):
                return sym, args
    return None


@PROPERTY_SETTINGS
@given(algebra_pairs())
def test_check_homomorphism_matches_naive_scan(pair):
    a, other = pair
    for b in (a, other):
        for m in itertools.product(b.carrier, repeat=a.size):
            witness = naive_commutation_violation(a, b, m)
            result = sc.check_homomorphism(a, b, m)
            if witness is None:
                assert result == sc.Homomorphism(a, b, m)
            else:
                assert result == witness


def product_loop_tables(a, points):
    """Tables of the subalgebra of a power of a on the closed list points,
    one argument tuple of points at a time."""
    position = {p: i for i, p in enumerate(points)}
    k = len(points[0])
    return tuple(
        tuple(
            position[tuple(a.apply(sym, tuple(p[i] for p in args)) for i in range(k))]
            for args in itertools.product(points, repeat=arity)
        )
        for sym, arity, _ in a.operations()
    )


@PROPERTY_SETTINGS
@given(mixed_algebras())
def test_image_factorization_matches_product_loop(a):
    for f in all_maps(a, a):
        _, image, inclusion = sc.image_factorization(f)
        points = [(v,) for v in inclusion.map]
        assert image.tables == product_loop_tables(a, points)


@PROPERTY_SETTINGS
@given(mixed_algebras(), st.integers(1, 2))
def test_free_model_algebra_matches_product_loop(a, generators):
    # at most 16 elements, so the product loop stays small
    model = sc.free_term_operations(a, generators, budget=16 * a.size**generators)
    if model.complete:
        points = [op.table for op in model]
        assert model.as_algebra().tables == product_loop_tables(a, points)


def image_of_other_points(a, points):
    """The first point, in signature and product order, that an operation
    yields from argument points all different from it, or None."""
    k = len(points[0])
    for sym, arity, _ in a.operations():
        for args in itertools.product(points, repeat=arity):
            value = tuple(a.apply(sym, tuple(p[i] for p in args)) for i in range(k))
            if value not in args:
                return value
    return None


@PROPERTY_SETTINGS
@given(mixed_algebras())
def test_pair_algebra_tables_match_product_loop(a):
    # a reflexive compatible relation is a subalgebra of the square, so its
    # pairs are a closed list of 2-coordinate points
    for r in sc.enumerate_reflexive_compatible(a).relations:
        points = list(r.pairs())
        assert _induced_tables(a, points) == product_loop_tables(a, points)
        image = image_of_other_points(a, points)
        if image is not None:
            with pytest.raises(KeyError):
                _induced_tables(a, [p for p in points if p != image])


@PROPERTY_SETTINGS
@given(st.lists(st.integers(1, 3), min_size=1, max_size=2), st.integers(1, 5000), st.data())
def test_graph_route_tables_fit_the_clone_budget(arities, budget, data):
    # FAIL only from complete free models: a graph without legs is INCONCLUSIVE
    a = data.draw(mixed_algebras([0, *arities]))
    e = data.draw(st.sampled_from(sorted(sc.constants_subalgebra(a))))
    graph = sc.substitution_graph(a, e, budget)
    verdict = sc.graph_left_star_symmetric(sc.Total(), graph.g0, graph.g1)
    complete = graph.binary_model.complete and graph.unary_model.complete
    assert (graph.g0 is not None) == complete == (graph.budget is None)
    if complete:
        for model in (graph.g0.domain, graph.g0.codomain):
            assert sum(len(t) for _, k, t in model.operations() if k > 0) <= budget
    else:
        assert verdict.verdict is sc.Verdict.INCONCLUSIVE
        assert graph.budget.startswith("clone-cells F(")


def pair_sets(ns, nt):
    """Sets of pairs over a source of ns and a target of nt elements."""
    return st.frozensets(st.tuples(st.integers(0, ns - 1), st.integers(0, nt - 1)))


def naive_compose(p, q):
    return {(x, z) for x, y in p for w, z in q if y == w}


def naive_compatible(a, p):
    """p is closed under every operation applied coordinatewise."""
    return all(
        (a.apply(sym, tuple(x for x, _ in combo)), a.apply(sym, tuple(y for _, y in combo))) in p
        for sym, arity, _ in a.operations()
        for combo in itertools.product(p, repeat=arity)
    )


def naive_pair_closure(a, b, p):
    """The least subuniverse of a x b containing p, one argument tuple of
    pairs at a time."""
    members = set(p)
    while True:
        grown = members | {
            (a.apply(sym, tuple(x for x, _ in combo)), b.apply(sym, tuple(y for _, y in combo)))
            for sym, arity, _ in a.operations()
            for combo in itertools.product(sorted(members), repeat=arity)
        }
        if grown == members:
            return grown
        members = grown


@PROPERTY_SETTINGS
@given(algebra_pairs(), st.data())
def test_compatibility_between_two_algebras(pair, data):
    # the source's operations in the first column, the target's in the
    # second; a drawn set is rarely compatible, its closure always is
    a, b = pair
    p = data.draw(pair_sets(a.size, b.size))
    for q in (p, naive_pair_closure(a, b, p)):
        expected = naive_pair_closure(a, b, q) == q
        assert sc.Relation.from_pairs(a, b, q).verify_compatible() == expected


def equal_label_pairs(labels):
    return {(x, y) for x, u in enumerate(labels) for y, v in enumerate(labels) if u == v}


@PROPERTY_SETTINGS
@given(st.integers(1, 4), st.integers(1, 4), st.data())
def test_pairs_are_the_set_bits_in_lexicographic_order(ns, nt, data):
    mask = data.draw(st.integers(0, (1 << ns * nt) - 1))
    expected = [
        (a, b) for a in range(ns) for b in range(nt) if mask >> (a * nt + b) & 1
    ]
    r = sc.Relation(empty_set_algebra(ns), empty_set_algebra(nt), mask)
    assert list(r.pairs()) == expected
    assert len(r) == len(expected)


@PROPERTY_SETTINGS
@given(st.integers(1, 4), st.integers(1, 4), st.integers(1, 4), st.data())
def test_compose_matches_pair_set_definition(nx, ny, nz, data):
    # rectangular relations: source, middle and target sizes drawn apart
    x, y, z = empty_set_algebra(nx), empty_set_algebra(ny), empty_set_algebra(nz)
    p = data.draw(pair_sets(nx, ny))
    q = data.draw(pair_sets(ny, nz))
    composed = sc.compose(sc.Relation.from_pairs(x, y, p), sc.Relation.from_pairs(y, z, q))
    assert composed == sc.Relation.from_pairs(x, z, naive_compose(p, q))


@PROPERTY_SETTINGS
@given(st.integers(1, 4), st.integers(1, 4), st.data())
def test_opposite_matches_pair_set_definition(ns, nt, data):
    x, y = empty_set_algebra(ns), empty_set_algebra(nt)
    p = data.draw(pair_sets(ns, nt))
    reversed_pairs = {(b, a) for a, b in p}
    assert sc.opposite(sc.Relation.from_pairs(x, y, p)) == sc.Relation.from_pairs(y, x, reversed_pairs)


@pytest.mark.parametrize("ns,nt", [(ns, nt) for ns in range(1, 5) for nt in range(1, 5) if ns * nt <= 9])
def test_opposite_matches_pair_set_definition_on_every_mask(ns, nt):
    x, y = empty_set_algebra(ns), empty_set_algebra(nt)
    for mask in range(1 << ns * nt):
        r = sc.Relation(x, y, mask)
        assert sc.opposite(r) == sc.Relation.from_pairs(y, x, {(b, a) for a, b in r.pairs()})


@PROPERTY_SETTINGS
@given(st.integers(1, 16), st.integers(2, 16), st.data())
def test_opposite_of_rows_with_both_end_bits(ns, nt, data):
    # a row holding both its first and its last pair is where a transpose
    # that spreads rows, instead of gathering columns, carries
    x, y = empty_set_algebra(ns), empty_set_algebra(nt)
    p = data.draw(pair_sets(ns, nt)) | {(a, b) for a in range(ns) for b in (0, nt - 1)}
    reversed_pairs = {(b, a) for a, b in p}
    assert sc.opposite(sc.Relation.from_pairs(x, y, p)) == sc.Relation.from_pairs(y, x, reversed_pairs)


@PROPERTY_SETTINGS
@given(st.integers(1, 4), st.integers(1, 4), st.data())
def test_inverse_image_matches_pair_set_definition(nd, nc, data):
    # every map between bare sets is a homomorphism, so the drawn maps
    # include non-injective and non-surjective ones
    d, c = empty_set_algebra(nd), empty_set_algebra(nc)
    m = tuple(data.draw(st.lists(st.integers(0, nc - 1), min_size=nd, max_size=nd)))
    q = data.draw(pair_sets(nc, nc))
    expected = {(a, b) for a in d.carrier for b in d.carrier if (m[a], m[b]) in q}
    pulled = sc.inverse_image(sc.Homomorphism(d, c, m), sc.Relation.from_pairs(c, c, q))
    assert pulled == sc.Relation.from_pairs(d, d, expected)


@PROPERTY_SETTINGS
@given(mixed_algebras(), st.data())
def test_relation_predicates_match_pair_set_definitions(a, data):
    p = data.draw(pair_sets(a.size, a.size))
    variants = [p, p | {(x, x) for x in a.carrier}, p | {(y, x) for x, y in p}]
    variants += [equal_label_pairs(c.partition) for c in sc.all_congruences(a)]
    for q in variants:
        preds = sc.relation_predicates(sc.Relation.from_pairs(a, a, q))
        assert preds.reflexive == all((x, x) in q for x in a.carrier)
        assert preds.symmetric == all((y, x) in q for x, y in q)
        assert preds.transitive == (naive_compose(q, q) <= q)
        assert preds.compatible == naive_compatible(a, q)


def star_cases(a):
    """(algebra, context, null elements) for total, proto and pointed at
    every element, on a and on the bare set of its size."""
    bare = empty_set_algebra(a.size)
    for algebra in (a, bare):
        yield algebra, sc.Total(), set(algebra.carrier)
        yield algebra, sc.ProtoPointed(), naive_closure(algebra, ())
    for b in a.carrier:
        yield with_fixed_point(a, b), sc.Pointed(b), {b}
        yield bare, sc.Pointed(b), {b}


@PROPERTY_SETTINGS
@given(mixed_algebras(), st.data())
def test_star_keeps_the_pairs_with_null_first_component(a, data):
    drawn = data.draw(pair_sets(a.size, a.size))
    for algebra, ctx, nulls in star_cases(a):
        # the full relation and the congruences are compatible
        candidates = [drawn, equal_label_pairs((0,) * a.size)]
        candidates += [equal_label_pairs(c.partition) for c in sc.all_congruences(algebra)]
        for p in candidates:
            r = sc.Relation.from_pairs(algebra, algebra, p)
            if algebra.signature.is_empty or naive_compatible(algebra, p):
                expected = {(x, y) for x, y in p if x in nulls}
                assert sc.star(ctx, r) == sc.Relation.from_pairs(algebra, algebra, expected)
            else:
                with pytest.raises(ValueError, match="compatible"):
                    sc.star(ctx, r)


def first_unreversed_star_pair(p, nulls):
    """The lexicographically first pair of p with a null first component
    whose reverse is not in p."""
    return min(((x, y) for x, y in p if x in nulls and (y, x) not in p), default=None)


@PROPERTY_SETTINGS
@given(mixed_algebras(), st.data())
def test_star_symmetry_matches_pair_set_definition(a, data):
    # mostly incompatible pair sets over a non-empty signature: the left
    # check has no compatibility precondition
    drawn = data.draw(pair_sets(a.size, a.size))
    for algebra, ctx, nulls in star_cases(a):
        # the second variant is left star-symmetric, so only its opposite
        # can fail
        reversed_star = {(y, x) for x, y in drawn if x in nulls}
        for p in (drawn, drawn | reversed_star):
            r = sc.Relation.from_pairs(algebra, algebra, p)
            left = first_unreversed_star_pair(p, nulls)
            assert sc.is_left_star_symmetric(ctx, r) == sc.SymmetryVerdict(left is None, left)
            right = first_unreversed_star_pair({(y, x) for x, y in p}, nulls)
            if left is not None:
                expected = sc.SymmetryVerdict(False, left)
            elif right is not None:
                expected = sc.SymmetryVerdict(False, right, from_opposite=True)
            else:
                expected = sc.SymmetryVerdict(True)
            assert sc.is_star_symmetric(ctx, r) == expected


@PROPERTY_SETTINGS
@given(mixed_algebras())
def test_kernel_pair_and_congruence_relation_pair_equal_labels(a):
    for f in all_maps(a, a):
        assert sc.kernel_pair(f) == sc.Relation.from_pairs(a, a, equal_label_pairs(f.map))
    for c in sc.all_congruences(a):
        expected = sc.Relation.from_pairs(a, a, equal_label_pairs(c.partition))
        assert sc.congruence_relation(c) == expected


def endomorphisms(a, ctx):
    """The endomorphisms check-identities quantifies over: every one, or
    under a pointed context those that fix the base."""
    maps = list(all_maps(a, a))
    if isinstance(ctx, sc.Pointed):
        base = resolve_base(ctx, a)
        maps = [f for f in maps if f.map[base] == base]
    return maps


def unstack(stack, n, k):
    """The k square masks on n elements of a stack, member i at bit
    i * n^2."""
    block = (1 << n * n) - 1
    return [stack >> i * n * n & block for i in range(k)]


def unstacked_cases(stacked_sides, n, k):
    """The per-case (lhs, rhs) masks of stacked law sides, in stack order."""
    return [
        case
        for lhs, rhs in stacked_sides
        for case in zip(unstack(lhs, n, k), unstack(rhs, n, k))
    ]


def assert_law_sides_match_public_api(a, ctx, reverse=False):
    """Each case of the stacked law kernels of check-identities equals the
    same case built from the public star, compose and inverse_image, over
    the family in its own order or reversed."""
    family, _ = cli._identity_family(a, ctx, cli.DEFAULT_RELATION_BUDGET)
    if reverse:
        family.reverse()
    stars = [sc.star(ctx, r) for r in family]
    pairs = list(zip(family, stars))
    n, k = a.size, len(family)
    expected = [
        (sc.star(ctx, sc.compose(s, r)).mask, sc.compose(star_s, r).mask)
        for r in family for s, star_s in pairs
    ]
    masks = [r.mask for r in family]
    sides = list(_compose_star_sides(ctx, a, masks))
    assert len(sides) == k
    assert unstacked_cases(sides, n, k) == expected
    endos = endomorphisms(a, ctx)
    expected = [
        (sc.star(ctx, sc.inverse_image(f, s)).mask,
         sc.star(ctx, sc.inverse_image(f, star_s)).mask)
        for f in endos for s, star_s in pairs
    ]
    sides = list(_inverse_image_star_sides(ctx, a, endos, masks))
    assert len(sides) == len(endos)
    assert unstacked_cases(sides, n, k) == expected


LAW_CORPUS = (
    ("set2", "total"), ("set2", "pointed:0"), ("bool2", "proto"),
    ("groupZ2", "pointed:e"), ("monoid01", "pointed:0"),
)


# the family is sorted by mask, so its member 0 is the empty relation;
# reversed, member 0 is the largest, and a leak of member 0 into the
# other members of a stack shows
@pytest.mark.parametrize("name,context,reverse", [
    pytest.param(name, context, reverse, id=f"{name}-{context}" + "-reversed" * reverse)
    for reverse in (False, True) for name, context in LAW_CORPUS
])
def test_law_kernels_match_public_api_on_corpus_families(name, context, reverse):
    assert_law_sides_match_public_api(load_algebra(name), sc.parse_context(context), reverse)


@PROPERTY_SETTINGS
@given(mixed_algebras(), st.data())
def test_law_kernels_match_public_api_on_random_families(a, data):
    base = data.draw(st.integers(0, a.size - 1))
    assert_law_sides_match_public_api(a, sc.Total())
    assert_law_sides_match_public_api(a, sc.ProtoPointed())
    assert_law_sides_match_public_api(with_fixed_point(a, base), sc.Pointed(base))


@st.composite
def stacked_families(draw):
    """A carrier size n of 1 to 5, up to eight square masks on it (empty
    and all-ones blocks drawn often, so a carry across blocks would show),
    a relation r and a self-map f."""
    n = draw(st.integers(1, 5))
    full = (1 << n * n) - 1
    block = st.one_of(st.just(0), st.just(full), st.integers(0, full))
    masks = draw(st.lists(block, max_size=8))
    r = draw(block)
    f = tuple(draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n)))
    return n, masks, r, f


@PROPERTY_SETTINGS
@given(stacked_families())
def test_stacked_kernels_match_per_member_kernels(family):
    n, masks, r, fmap = family
    k = len(masks)
    bare = empty_set_algebra(n)
    f = sc.Homomorphism(bare, bare, fmap)
    graph, graph_op = _graph_masks(f)
    stack = _stack_masks(masks, n)
    assert unstack(stack, n, k) == masks
    assert stack >> k * n * n == 0
    composed = _compose_masks(stack, r, k * n, n, n)
    assert composed >> k * n * n == 0
    assert unstack(composed, n, k) == [_compose_masks(s, r, n, n, n) for s in masks]
    pulled = _pull_back_stack(f, stack, k)
    assert pulled >> k * n * n == 0
    assert unstack(pulled, n, k) == [_pull_back_mask(graph, graph_op, s, n, n) for s in masks]


@pytest.mark.parametrize("name,context", [
    ("set2", "total"), ("set2", "pointed:1"), ("monoid01", "pointed:0"),
    ("ringZ4", "proto"),
])
def test_planted_star_fault_shows_in_exactly_its_case(name, context):
    """Flip one bit in a null row of one member's mask, so that its star
    changes too: only the cases that read that member (as s, or as r of
    law-compose-star) may change, and with r the diagonal and f the
    identity both sides of its case do."""
    a, ctx = load_algebra(name), sc.parse_context(context)
    family, _ = cli._identity_family(a, ctx, cli.DEFAULT_RELATION_BUDGET)
    n, k = a.size, len(family)
    masks = [r.mask for r in family]
    diagonal = family.index(sc.diagonal(a))
    null = min(sc.null_class(ctx, a).elements)
    identity = sc.Homomorphism(a, a, tuple(a.carrier))
    endos = [identity, *(f for f in endomorphisms(a, ctx) if f != identity)]

    def cases(masks):
        return (
            unstacked_cases(_compose_star_sides(ctx, a, masks), n, k),
            unstacked_cases(_inverse_image_star_sides(ctx, a, endos, masks), n, k),
        )

    for j in (0, k // 2, k - 1):
        planted = list(masks)
        planted[j] ^= 1 << null * n + j % n
        for clean, faulty, first, reads in zip(
            cases(masks), cases(planted), (diagonal, 0),
            (lambda r, s: j in (r, s), lambda f, s: s == j),
        ):
            changed = {
                divmod(case, k): (lhs != clean_lhs, rhs != clean_rhs)
                for case, ((lhs, rhs), (clean_lhs, clean_rhs)) in enumerate(zip(faulty, clean))
                if (lhs, rhs) != (clean_lhs, clean_rhs)
            }
            assert all(reads(*case) for case in changed)
            assert changed[first, j] == (True, True)
