"""Clone generation and characterizing-term synthesis.

The n-ary term operations of a finite algebra are generated breadth-first
from the projections and constants, each new value table paired with the
first syntax tree that produced it; a tree is checked against its table
only where a term leaves the clone.  A round evaluates each operation
at once for each argument prefix's batch of last arguments, on tables
packed as bytes; prefixes and batches follow the order of a plain
lexicographic scan, so element order, first-found terms and budget
cut-offs do not depend on the batching.  The closure is one call that
returns its elements and whether it reached its fixpoint.  One search
over the growing clone decides whether the generated variety has
subtraction-style binary terms for its constants, or a ternary Mal'tsev
term, and certifies each witness; it tests each element as the closure
inserts it and stops the closure at the element that gives the last
target its witness.  Absence certificates are only issued when the
closure reached its fixpoint.  One evaluator turns syntax trees, parsed
identities included, into value tables with the table-composition kernel
of `algebra`, which also owns the flat-table encoding they use.
"""

from __future__ import annotations

import enum
import functools
import itertools
import sys
from dataclasses import dataclass
from typing import Iterable

from .algebra import (
    FiniteAlgebra,
    Homomorphism,
    _checked_code,
    _compose,
    _first_mismatch,
    _induced_tables,
    _kind,
    _projections,
    _tokens,
    constants_subalgebra,
)
from .errors import BudgetError

DEFAULT_CLONE_BUDGET = 200_000  # total table cells across stored elements

_VAR_NAMES = ("x", "y", "z")


def variable_name(index: int) -> str:
    return _VAR_NAMES[index] if index < len(_VAR_NAMES) else f"x{index + 1}"


@dataclass(frozen=True, slots=True)
class Var:
    index: int


@dataclass(frozen=True, slots=True)
class App:
    symbol: str
    args: tuple  # of Var | App


Term = Var | App


def term_text(term: Term) -> str:
    """Prefix rendering: variables x, y, z; nullary symbols print bare."""
    if isinstance(term, Var):
        return variable_name(term.index)
    if not term.args:
        return term.symbol
    return f"{term.symbol}({', '.join(term_text(t) for t in term.args)})"


def term_table(term: Term, algebra: FiniteAlgebra, arity: int) -> tuple[int, ...]:
    """Value table of a term over all assignments, in lexicographic order."""
    tables = {sym: table for sym, _, table in algebra.operations()}
    projections = _projections(algebra.size, arity)
    return _evaluate(term, tables, algebra.size, dict(enumerate(projections)))


def _evaluate(term: Term, tables: dict, size: int, variables: dict) -> tuple[int, ...]:
    """Value table of a tree over all assignments to its variables, in
    lexicographic order: ``tables`` maps each App symbol to a flat table,
    ``variables`` each Var index to its value table.

    Iterative bottom-up evaluation with sharing, so derivation trees that
    reuse subterms cost one pass per distinct node."""
    tab_len = size ** len(variables)
    memo: dict[int, tuple[int, ...]] = {}
    stack: list[tuple[Term, bool]] = [(term, False)]
    while stack:
        node, expanded = stack.pop()
        if id(node) in memo:
            continue
        if isinstance(node, Var):
            if node.index not in variables:
                raise ValueError(f"variable index {node.index} out of range")
            memo[id(node)] = variables[node.index]
            continue
        if not expanded:
            stack.append((node, True))
            for child in node.args:
                stack.append((child, False))
            continue
        child_tables = [memo[id(child)] for child in node.args]
        node_table = _compose(tables[node.symbol], size, child_tables, tab_len)
        memo[id(node)] = tuple(node_table)
    return memo[id(term)]


@dataclass(frozen=True)
class TermOperation:
    """An n-ary value table paired with a syntax tree that produces it;
    the two are checked against each other at construction, so the clone
    builds these only for the terms it hands out."""

    algebra: FiniteAlgebra
    arity: int
    table: tuple[int, ...]
    term: Term

    def __post_init__(self):
        if len(self.table) != self.algebra.size ** self.arity:
            raise ValueError("table length does not match the arity")
        if term_table(self.term, self.algebra, self.arity) != self.table:
            raise ValueError("syntax tree does not evaluate to the table")

    def __call__(self, *args: int) -> int:
        return self.table[_checked_code(args, self.arity, self.algebra.size)]

    @property
    def text(self) -> str:
        return term_text(self.term)


class FreeAlgebraModel:
    """The n-generated free algebra of the variety generated by ``base``,
    realized as term-operation tables; complete when the closure reached
    its fixpoint within budget.

    The model keeps the clone's (table, term) pairs: ``index`` maps each
    table to its element's position, and ``elements`` builds the checked
    TermOperations only when first read."""

    def __init__(
        self,
        base: FiniteAlgebra,
        generators: int,
        clone: Iterable[tuple[tuple[int, ...], Term]],
        complete: bool,
    ):
        self.base = base
        self.generators = generators
        self.complete = complete
        self._clone = tuple(clone)
        self.index = {table: i for i, (table, _) in enumerate(self._clone)}
        if len(self.index) != len(self._clone):
            raise ValueError("element tables must be pairwise distinct")

    @functools.cached_property
    def elements(self) -> tuple[TermOperation, ...]:
        return tuple(
            TermOperation(self.base, self.generators, table, term)
            for table, term in self._clone
        )

    def __len__(self) -> int:
        return len(self._clone)

    def __iter__(self):
        return iter(self.elements)

    def as_algebra(self, name: str = "") -> FiniteAlgebra:
        """Materialize as a finite algebra with the induced operations."""
        if not self.complete:
            raise ValueError("only a complete model can be materialized")
        tables = _induced_tables(self.base, list(self.index))
        return FiniteAlgebra(self.base.signature, len(self), tables, name)


# byte width of a packed table cell: its native memoryview format
_CELL_CODES = {1: "B", 2: "H", 4: "I", 8: "Q"}


def _clone_closure(a: FiniteAlgebra, n: int, budget: int, settled=None):
    """Return (elements, complete) of the closure of the projections and
    constants under every basic operation, the elements as (table, term)
    pairs in generation order.  Each round applies every basic operation
    to all argument tuples that involve an element from the previous
    round; the closure is complete when a round adds nothing.  It stops,
    not complete, at the first element beyond the budget (a budget below
    one table gives none) or when ``settled``, called as settled(index,
    table) on each element as it is inserted, returns true.

    Invariant that fixes the element order, the first-found terms and the
    budget cut-off (and so the golden reports): within a round the
    operations are taken in signature order, each over its argument
    prefixes (all arguments but the last) in lexicographic order, and each
    prefix over its batch of last arguments in ascending order: the whole
    snapshot the round started from if the prefix holds an element that
    the previous round added, else only those elements.  That is exactly a
    scan of every tuple over the snapshot that skips the all-old ones.

    Kernel: one insertion-ordered dict maps each element's table, packed
    ``width`` bytes per cell (enough for every operation's table index),
    to its term: the dedup set, the generation order and the term store.
    A batch's table indexes are one big-int multiply-add, the prefix's
    index cells (repeated once per batch member) times the carrier size
    plus the batch's cells, with no carry between cells; its values are
    one lookup over those index bytes, cut into keys.  A key already seen
    costs a bytes slice and a dict probe.  Tables stay packed: ``settled``
    and the returned elements read them as memoryviews cast to the cell
    width, read-only sequences of ints."""
    size = a.size
    tab_len = size ** n
    max_elements = budget // tab_len
    cells = max((size ** arity for _, arity, _ in a.operations()), default=1)
    width, code = next(
        (w, c) for w, c in _CELL_CODES.items() if cells <= 256 ** w
    )
    step = tab_len * width  # bytes per packed table
    order = sys.byteorder

    # a 1-byte cell reads its value with bytes.translate on a 256-byte
    # table, a wider one from a list of packed values
    positive = [
        (sym, arity, bytes(table).ljust(256, b"\0") if width == 1
         else [v.to_bytes(width, order) for v in table])
        for sym, arity, table in a.operations() if arity > 0
    ]

    clone: dict[bytes, Term] = {}

    def insert(key: bytes, term: Term) -> bool:
        # key is not in clone; true when the closure stops here
        if len(clone) >= max_elements:
            return True
        clone[key] = term
        return settled is not None and settled(len(clone) - 1, memoryview(key).cast(code))

    def result(complete: bool):
        return [(memoryview(key).cast(code), term) for key, term in clone.items()], complete

    seeds = [(proj, Var(i)) for i, proj in enumerate(_projections(size, n))]
    seeds += [
        ((table[0],) * tab_len, App(sym, ()))
        for sym, arity, table in a.operations() if arity == 0
    ]
    for table, term in seeds:
        key = b"".join(v.to_bytes(width, order) for v in table)
        if key not in clone and insert(key, term):
            return result(False)

    frontier = 0
    while True:
        keys = list(clone)
        snapshot = len(keys)
        runs = {lo: int.from_bytes(b"".join(keys[lo:]), order) for lo in {0, frontier}}
        for sym, arity, table in positive:
            for prefix in itertools.product(range(snapshot), repeat=arity - 1):
                lo = frontier if all(c < frontier for c in prefix) else 0
                count = snapshot - lo
                head = 0
                for c in prefix:
                    head = head * size + int.from_bytes(keys[c], order)
                heads = int.from_bytes(head.to_bytes(step, order) * count, order)
                indexes = (heads * size + runs[lo]).to_bytes(count * step, order)
                if width == 1:
                    values = indexes.translate(table)
                else:
                    wide = memoryview(indexes).cast(code)
                    values = b"".join(map(table.__getitem__, wide))
                prefix_terms = tuple(clone[keys[c]] for c in prefix)
                for last, start in enumerate(range(0, count * step, step), lo):
                    key = values[start:start + step]
                    if key not in clone and insert(
                        key, App(sym, (*prefix_terms, clone[keys[last]]))
                    ):
                        return result(False)
        if len(clone) == snapshot:
            return result(True)
        frontier = snapshot


def free_term_operations(
    a: FiniteAlgebra, n: int, budget: int = DEFAULT_CLONE_BUDGET
) -> FreeAlgebraModel:
    """Close the projections and constants under all basic operations; a
    budget below one table is a BudgetError."""
    if n < 0:
        raise ValueError("the generator count must be non-negative")
    if a.size ** n > budget:
        raise BudgetError(
            f"table length {a.size ** n} exceeds the clone budget {budget}"
        )
    elements, complete = _clone_closure(a, n, budget)
    return FreeAlgebraModel(a, n, ((tuple(t), term) for t, term in elements), complete)


def _certify(a, arity, table, term, identities, symbol) -> TermOperation:
    """A witness as a term operation, once its tree is re-evaluated to its
    table and its identities hold on the whole carrier; a failure is a
    fault in the search, not in the input."""
    try:
        op = TermOperation(a, arity, tuple(table), term)
    except ValueError as exc:
        raise RuntimeError(f"witness {term_text(term)}: {exc}") from None
    verdict = verify_term_identities(op, identities, symbol)
    if not verdict.holds:
        raise RuntimeError(
            f"witness {op.text} fails {verdict.identity} at {verdict.assignment}"
        )
    return op


class SearchStatus(enum.Enum):
    FOUND = "found"
    ABSENT = "absent"
    INCONCLUSIVE = "inconclusive"


def _search(
    a: FiniteAlgebra, arity: int, budget: int, targets: dict, key_of, symbol: str
):
    """Grow the ``arity``-ary clone until every target has a witness, the
    closure is complete or the budget is spent.  ``targets`` maps keys to
    (accepts, identities), and ``key_of`` names the one key a table could
    witness: a key's witness is the first element in clone order whose
    table names that key and that ``accepts``, certified against the
    identities on ``symbol``.  Each element is tested as it is inserted,
    so on FOUND the clone size counts the elements up to and including
    the last witness; otherwise it is the whole closure or the budget's
    cut.  Returns (status, {key: TermOperation}, clone size, complete)."""
    if budget < 1:
        raise ValueError("the clone budget must be positive")
    pending = {key: accepts for key, (accepts, _) in targets.items()}
    found: dict = {}  # key -> index of its witness

    def settled(index: int, table) -> bool:
        key = key_of(table)
        accepts = pending.get(key)
        if accepts is not None and accepts(table):
            del pending[key]
            found[key] = index
        return not pending

    # the closure ends itself at the last witness, its fixpoint or its budget
    clone, complete = _clone_closure(a, arity, budget, settled)

    witnesses = {
        key: _certify(a, arity, *clone[found[key]], identities, symbol)
        for key, (_, identities) in targets.items()
        if key in found
    }
    if not pending:
        status = SearchStatus.FOUND
    elif complete:
        status = SearchStatus.ABSENT
    else:
        status = SearchStatus.INCONCLUSIVE
    return status, witnesses, len(clone), complete


def _subtractive_table(table, e: int, size: int) -> bool:
    # s(x, x) = e and s(x, e) = x for every carrier element x
    for x in range(size):
        if table[x * size + x] != e or table[x * size + e] != x:
            return False
    return True


@dataclass(frozen=True)
class SubtractiveSearch:
    """Outcome of the subtraction-term search.

    ``terms`` holds one witnessing term per element found (first in clone
    order); ABSENT is only reported over a complete clone, otherwise a
    spent budget yields INCONCLUSIVE.  ``clone_size`` counts the
    elements generated up to and including the last witness on FOUND,
    and the whole closure or the budget's cut otherwise."""

    status: SearchStatus
    terms: tuple[tuple[int, TermOperation], ...]
    missing: tuple[int, ...]
    clone_size: int
    complete: bool

    def term_for(self, e: int) -> TermOperation:
        for elem, op in self.terms:
            if elem == e:
                return op
        raise KeyError(e)


def find_e_subtractive_terms(
    a: FiniteAlgebra,
    elements: tuple[int, ...] | None = None,
    budget: int = DEFAULT_CLONE_BUDGET,
) -> SubtractiveSearch:
    """For each constants-subalgebra element e, search the binary clone for
    a term with s(x, x) = e and s(x, e) = x.

    The verdict certifies the variety generated by the algebra.  Each
    clone element is tested as it is generated, and the search stops at
    the element that gives the last target its witness: the clone size
    counts the elements up to and including it on FOUND, and the whole
    closure or the budget's cut otherwise."""
    if elements is None:
        targets = tuple(sorted(constants_subalgebra(a)))
        if not targets:
            raise ValueError("the signature has no constants")
    else:
        targets = tuple(sorted(set(elements)))
        if not targets:
            raise ValueError("no target elements")
        for e in targets:
            if not 0 <= e < a.size:
                raise ValueError(f"element {e} out of range")

    # s(0, 0) = e names the only e a table can witness
    status, witnesses, clone_size, complete = _search(a, 2, budget, {
        e: (lambda table, e=e: _subtractive_table(table, e, a.size),
            [f"s(x, x) = {e}", f"s(x, {e}) = x"])
        for e in targets
    }, lambda table: table[0], "s")
    missing = tuple(e for e in targets if e not in witnesses)
    terms = tuple(witnesses.items())
    return SubtractiveSearch(status, terms, missing, clone_size, complete)


@dataclass(frozen=True)
class MaltsevSearch:
    """Outcome of the Mal'tsev-term search: ``term`` is the first witness
    in clone order, or None.  ``clone_size`` counts the elements
    generated up to and including the witness on FOUND, and the whole
    closure or the budget's cut otherwise."""

    status: SearchStatus
    term: TermOperation | None
    clone_size: int
    complete: bool


def _maltsev_table(table, n: int) -> bool:
    # p(x, x, y) = y and p(x, y, y) = x for all carrier elements x, y
    for x in range(n):
        for y in range(n):
            if table[(x * n + x) * n + y] != y:
                return False
            if table[(x * n + y) * n + y] != x:
                return False
    return True


def find_maltsev_term(
    a: FiniteAlgebra, budget: int = DEFAULT_CLONE_BUDGET
) -> MaltsevSearch:
    """Search the ternary clone for p with p(x, x, y) = y and p(x, y, y) = x."""
    status, witnesses, clone_size, complete = _search(a, 3, budget, {
        "p": (lambda table: _maltsev_table(table, a.size),
              ["p(x, x, y) = y", "p(x, y, y) = x"])
    }, lambda table: "p", "p")
    return MaltsevSearch(status, witnesses.get("p"), clone_size, complete)


@dataclass(frozen=True)
class SubstitutionGraph:
    """The reflexive graph from the 2-generated free model to the
    1-generated one: g0 substitutes the marked constant element for the
    second generator, g1 substitutes the first generator; delta includes
    unary terms as binary ones and splits both legs.

    When F(2) did not close within the clone budget, the legs are None,
    ``binary_model`` is the partial model, ``unary_model`` is empty and
    incomplete, since F(1) is not built, and ``budget`` names the spent
    budget as ``clone-cells F(2) used/limit`` elements.  F(1) embeds in
    F(2) through delta, so under F(2)'s limit it closes whenever F(2)
    does."""

    g0: Homomorphism | None
    g1: Homomorphism | None
    delta: Homomorphism | None
    binary_model: FreeAlgebraModel
    unary_model: FreeAlgebraModel
    budget: str | None = None


def _model_limit(a: FiniteAlgebra, budget: int) -> int:
    """The largest m whose induced tables, m ** arity cells for each
    operation of positive arity, fit in ``budget`` cells, bisected on
    0..budget (each such table has at least m cells); ``budget`` itself
    when no operation has positive arity."""
    arities = [arity for _, arity, _ in a.operations() if arity > 0]
    low, high = 0, budget  # the tables of low elements fit, of high + 1 not
    while low < high:
        m = (low + high + 1) // 2
        if sum(m ** arity for arity in arities) <= budget:
            low = m
        else:
            high = m - 1
    return low


def substitution_graph(
    a: FiniteAlgebra, e: int, budget: int = DEFAULT_CLONE_BUDGET
) -> SubstitutionGraph:
    """The substitution graph F(2) => F(1) at the constant element e.

    ``budget`` (positive) bounds, in table cells, both the clone rounds
    and the induced tables of each materialized model: F(2) stops at
    m elements, the largest m whose induced tables fit, so a model
    larger than m gives no legs even where budget // |A|^2 of its tables
    would fit (for a 3-element ring at the default budget, m = 315
    against 22,222 tables of F(2)).  An F(2) that does not close by then
    gives a graph without legs, not an error, and F(1) is not built;
    else F(1), which delta embeds in F(2), closes under the same limit."""
    if budget < 1:
        raise ValueError("the clone budget must be positive")
    if e not in constants_subalgebra(a):
        raise ValueError(f"element {e} is not generated by the constants")
    size = a.size
    limit = min(budget // size ** 2, _model_limit(a, budget))
    if limit:
        binary = free_term_operations(a, 2, limit * size ** 2)
    else:  # not one binary table fits
        binary = FreeAlgebraModel(a, 2, (), False)
    if not binary.complete:
        unary = FreeAlgebraModel(a, 1, (), False)
        budget_text = f"clone-cells F(2) {len(binary)}/{limit}"
        return SubstitutionGraph(None, None, None, binary, unary, budget_text)
    unary = free_term_operations(a, 1, limit * size)
    f2 = binary.as_algebra(f"{a.name or 'A'}.free2")
    f1 = unary.as_algebra(f"{a.name or 'A'}.free1")

    def substitute(source, target, cells):
        # each source element to the target element whose table it reads at cells
        return tuple(
            target.index[tuple(map(table.__getitem__, cells))] for table in source.index
        )

    at_e = [x * size + e for x in range(size)]
    at_diagonal = [x * size + x for x in range(size)]
    as_binary = [x for x in range(size) for _ in range(size)]
    g0 = Homomorphism(f2, f1, substitute(binary, unary, at_e))
    g1 = Homomorphism(f2, f1, substitute(binary, unary, at_diagonal))
    delta = Homomorphism(f1, f2, substitute(unary, binary, as_binary))
    return SubstitutionGraph(g0, g1, delta, binary, unary)


# --- identity verification ---------------------------------------------------

class _IdentityParser:
    """Parses ``lhs = rhs`` into two Var/App trees whose App symbols cannot
    shadow each other: a signature symbol keeps its name, the candidate
    term is None and an element literal is its int value."""

    def __init__(self, identity: str, algebra: FiniteAlgebra, symbol: str, t_arity: int):
        if identity.count("=") != 1:
            raise ValueError(f"identity needs exactly one '=': {identity!r}")
        self.identity = identity
        self.tokens = _tokens(identity)[::-1]  # a stack: next token last
        self.algebra = algebra
        self.symbol = symbol
        self.t_arity = t_arity
        self.variables: set[int] = set()

    def parse(self) -> tuple[Term, Term]:
        lhs = self.parse_term()
        self.expect("=")
        rhs = self.parse_term()
        if self.peek() is not None:
            raise ValueError(f"trailing tokens in {self.identity!r}")
        return lhs, rhs

    def peek(self) -> str | None:
        return self.tokens[-1] if self.tokens else None

    def take(self) -> str:
        if not self.tokens:
            raise ValueError("identity ended unexpectedly")
        return self.tokens.pop()

    def expect(self, tok: str):
        got = self.take()
        if got != tok:
            raise ValueError(f"expected {tok!r}, got {got!r}")

    def parse_term(self) -> Term:
        tok = self.take()
        kind = _kind(tok)
        if kind == "<int>":
            value = int(tok)
            if value >= self.algebra.size:
                raise ValueError(f"element literal {value} out of range")
            return App(value, ())
        if kind != "<name>":
            raise ValueError(f"expected a term, got {tok!r} in {self.identity!r}")
        if self.peek() != "(":
            return self._resolve(tok, None)
        self.take()
        args = []
        if self.peek() != ")":
            args.append(self.parse_term())
            while self.peek() == ",":
                self.take()
                args.append(self.parse_term())
        self.expect(")")
        return self._resolve(tok, tuple(args))

    def _resolve(self, name: str, args: tuple | None) -> Term:
        # bare (args None): a variable, else the candidate if nullary, else
        # a signature constant; applied: the candidate, else a signature symbol
        if args is None and name in _VAR_NAMES:
            self.variables.add(_VAR_NAMES.index(name))
            return Var(_VAR_NAMES.index(name))
        if name == self.symbol and (args is not None or self.t_arity == 0):
            key, arity = None, self.t_arity
        elif name in self.algebra.signature:
            key, arity = name, self.algebra.signature.arity(name)
        else:
            raise ValueError(f"unknown symbol {name!r}")
        args = args or ()
        if len(args) != arity:
            raise ValueError(f"{name} takes {arity} arguments, got {len(args)}")
        return App(key, args)


@dataclass(frozen=True)
class IdentityVerdict:
    holds: bool
    identity: str | None = None
    assignment: tuple[tuple[str, int], ...] | None = None


def verify_term_identities(
    t: TermOperation, identities: list[str], symbol: str = "s"
) -> IdentityVerdict:
    """Check formal equations by total evaluation over the carrier.

    Equations are written over the signature symbols, the designated name
    for the candidate term, variables x/y/z and element literals, e.g.
    ``s(x, x) = 0``.  Returns the first failing assignment if any."""
    a = t.algebra
    tables: dict = {sym: table for sym, _, table in a.operations()}
    tables[None] = t.table
    tables.update((value, (value,)) for value in a.carrier)
    for identity in identities:
        parser = _IdentityParser(identity, a, symbol, t.arity)
        lhs, rhs = parser.parse()
        variables = sorted(parser.variables)
        columns = dict(zip(variables, _projections(a.size, len(variables))))
        left, right = (_evaluate(side, tables, a.size, columns) for side in (lhs, rhs))
        values = _first_mismatch(left, right, a.size, len(variables))
        if values is not None:
            assignment = tuple(zip(map(variable_name, variables), values))
            return IdentityVerdict(False, identity, assignment)
    return IdentityVerdict(True)
