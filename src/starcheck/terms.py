"""Clone generation and characterizing-term synthesis.

The n-ary term operations of a finite algebra are generated breadth-first
from the projections and constants, each new value table paired with the
first syntax tree that produced it.  Searches over the growing clone
decide whether the generated variety has subtraction-style binary terms
for its constants, or a ternary Mal'tsev term; absence certificates are
only issued when the clone closure actually reached its fixpoint.
Term tables are evaluated with the table-composition kernel of `algebra`,
which also owns the flat-table encoding they use.
"""

from __future__ import annotations

import enum
import itertools
import re
from dataclasses import dataclass

from .algebra import (
    FiniteAlgebra,
    Homomorphism,
    _compose,
    _encode,
    _induced_tables,
    _projections,
    constants_subalgebra,
)
from .errors import BudgetError

DEFAULT_CLONE_BUDGET = 200_000  # total table cells across stored elements

_VAR_NAMES = ("x", "y", "z")


def variable_name(index: int) -> str:
    return _VAR_NAMES[index] if index < len(_VAR_NAMES) else f"x{index + 1}"


@dataclass(frozen=True)
class Var:
    index: int


@dataclass(frozen=True)
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
    """Value table of a term over all assignments, in lexicographic order.

    Iterative bottom-up evaluation with sharing, so derivation trees that
    reuse subterms cost one pass per distinct node."""
    size = algebra.size
    tab_len = size ** arity
    projections = _projections(size, arity)
    tables = {sym: table for sym, _, table in algebra.operations()}
    memo: dict[int, tuple[int, ...]] = {}
    stack: list[tuple[Term, bool]] = [(term, False)]
    while stack:
        node, expanded = stack.pop()
        if id(node) in memo:
            continue
        if isinstance(node, Var):
            if node.index >= arity:
                raise ValueError(f"variable index {node.index} out of arity {arity}")
            memo[id(node)] = projections[node.index]
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
    the two are checked against each other at construction."""

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
        return self.table[_encode(args, self.algebra.size)]

    @property
    def text(self) -> str:
        return term_text(self.term)


class FreeAlgebraModel:
    """The n-generated free algebra of the variety generated by ``base``,
    realized as term-operation tables; complete when the closure reached
    its fixpoint within budget."""

    def __init__(
        self,
        base: FiniteAlgebra,
        generators: int,
        elements: tuple[TermOperation, ...],
        complete: bool,
    ):
        self.base = base
        self.generators = generators
        self.elements = elements
        self.complete = complete
        self.index = {op.table: i for i, op in enumerate(elements)}
        if len(self.index) != len(elements):
            raise ValueError("element tables must be pairwise distinct")

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def position(self, table: tuple[int, ...]) -> int | None:
        return self.index.get(table)

    def as_algebra(self, name: str = "") -> FiniteAlgebra:
        """Materialize as a finite algebra with the induced operations."""
        if not self.complete:
            raise ValueError("only a complete model can be materialized")
        tables = _induced_tables(self.base, [op.table for op in self.elements])
        return FiniteAlgebra(self.base.signature, len(self), tables, name)


def _fresh_tuples(count: int, frontier: int, arity: int):
    """Argument tuples over range(count) holding at least one index
    >= frontier, in lexicographic order."""
    if arity == 0:
        return
    for c in range(count):
        if c >= frontier:
            for rest in itertools.product(range(count), repeat=arity - 1):
                yield (c, *rest)
        else:
            for rest in _fresh_tuples(count, frontier, arity - 1):
                yield (c, *rest)


def _clone_rounds(a: FiniteAlgebra, n: int, budget: int):
    """Yield (elements, complete, exhausted) after seeding and after each
    closure round; rounds apply every basic operation to all argument
    tuples that involve at least one element from the previous round.

    Invariant that fixes the element order, the first-found terms and the
    budget cut-off (and so the golden reports): within a round the
    operations are taken in signature order, and each is applied to its
    fresh tuples in lexicographic order of element positions, exactly as
    a scan of every tuple over the round's snapshot that skips the
    all-old ones would."""
    size = a.size
    tab_len = size ** n
    if tab_len > budget:
        raise BudgetError(
            f"table length {tab_len} exceeds the clone budget {budget}"
        )
    max_elements = budget // tab_len

    elements: list[TermOperation] = []
    index: dict[tuple[int, ...], int] = {}
    exhausted = False

    def insert(table: tuple[int, ...], term: Term) -> bool:
        nonlocal exhausted
        if table in index:
            return False
        if len(elements) >= max_elements:
            exhausted = True
            return False
        index[table] = len(elements)
        elements.append(TermOperation(a, n, table, term))
        return True

    for i, proj in enumerate(_projections(size, n)):
        insert(proj, Var(i))
    for sym, arity, table in a.operations():
        if arity == 0:
            insert(tuple(_compose(table, size, (), tab_len)), App(sym, ()))
    yield elements, False, exhausted

    positive = [
        (sym, arity, table) for sym, arity, table in a.operations() if arity > 0
    ]
    frontier = 0
    while not exhausted:
        snapshot = len(elements)
        for sym, arity, table in positive:
            for combo in _fresh_tuples(snapshot, frontier, arity):
                result = tuple(_compose(
                    table, size, [elements[c].table for c in combo], tab_len
                ))
                insert(result, App(sym, tuple(elements[c].term for c in combo)))
                if exhausted:
                    break
            if exhausted:
                break
        if len(elements) == snapshot and not exhausted:
            yield elements, True, False
            return
        frontier = snapshot
        yield elements, False, exhausted
    yield elements, False, True


def free_term_operations(
    a: FiniteAlgebra, n: int, budget: int = DEFAULT_CLONE_BUDGET
) -> FreeAlgebraModel:
    """Close the projections and constants under all basic operations."""
    elements: list[TermOperation] = []
    complete = False
    for elements, complete, exhausted in _clone_rounds(a, n, budget):
        if exhausted:
            break
    return FreeAlgebraModel(a, n, tuple(elements), complete)


def _certify(op: TermOperation, identities: list[str], symbol: str) -> None:
    """Re-check a witness against its defining identities on the whole
    carrier; a failure is a fault in the search, not in the input."""
    verdict = verify_term_identities(op, identities, symbol)
    if not verdict.holds:
        raise RuntimeError(
            f"witness {op.text} fails {verdict.identity} at {verdict.assignment}"
        )


class SearchStatus(enum.Enum):
    FOUND = "found"
    ABSENT = "absent"
    INCONCLUSIVE = "inconclusive"


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
    order); ABSENT is only reported over a complete clone, otherwise an
    exhausted budget yields INCONCLUSIVE."""

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

    The verdict certifies the variety generated by the algebra.  The clone
    is grown round by round and the search stops early once every target
    has a witness."""
    if elements is None:
        targets = tuple(sorted(constants_subalgebra(a)))
        if not targets:
            raise ValueError("the signature has no constants")
    else:
        targets = tuple(sorted(set(elements)))
        for e in targets:
            if not 0 <= e < a.size:
                raise ValueError(f"element {e} out of range")

    found: dict[int, TermOperation] = {}
    scanned = 0
    clone: list[TermOperation] = []
    complete = False
    exhausted = False
    for clone, complete, exhausted in _clone_rounds(a, 2, budget):
        for op in clone[scanned:]:
            for e in targets:
                if e not in found and _subtractive_table(op.table, e, a.size):
                    found[e] = op
        scanned = len(clone)
        if len(found) == len(targets):
            break
        if complete or exhausted:
            break

    terms = tuple((e, found[e]) for e in targets if e in found)
    for e, op in terms:
        _certify(op, [f"s(x, x) = {e}", f"s(x, {e}) = x"], "s")
    missing = tuple(e for e in targets if e not in found)
    if not missing:
        status = SearchStatus.FOUND
    elif complete:
        status = SearchStatus.ABSENT
    else:
        status = SearchStatus.INCONCLUSIVE
    return SubtractiveSearch(status, terms, missing, len(clone), complete)


@dataclass(frozen=True)
class MaltsevSearch:
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
    scanned = 0
    clone: list[TermOperation] = []
    complete = False
    witness: TermOperation | None = None
    for clone, complete, exhausted in _clone_rounds(a, 3, budget):
        for op in clone[scanned:]:
            if witness is None and _maltsev_table(op.table, a.size):
                witness = op
        scanned = len(clone)
        if witness is not None:
            break
        if complete or exhausted:
            break

    if witness is not None:
        _certify(witness, ["p(x, x, y) = y", "p(x, y, y) = x"], "p")
        status = SearchStatus.FOUND
    elif complete:
        status = SearchStatus.ABSENT
    else:
        status = SearchStatus.INCONCLUSIVE
    return MaltsevSearch(status, witness, len(clone), complete)


@dataclass(frozen=True)
class SubstitutionGraph:
    """The reflexive graph from the 2-generated free model to the
    1-generated one: g0 substitutes the marked constant element for the
    second generator, g1 substitutes the first generator; delta includes
    unary terms as binary ones and splits both legs."""

    g0: Homomorphism
    g1: Homomorphism
    delta: Homomorphism
    binary_model: FreeAlgebraModel
    unary_model: FreeAlgebraModel


def substitution_graph(
    a: FiniteAlgebra, e: int, budget: int = DEFAULT_CLONE_BUDGET
) -> SubstitutionGraph:
    if e not in constants_subalgebra(a):
        raise ValueError(f"element {e} is not generated by the constants")
    binary = free_term_operations(a, 2, budget)
    unary = free_term_operations(a, 1, budget)
    if not (binary.complete and unary.complete):
        raise BudgetError("free models did not close within the clone budget")
    size = a.size
    f2 = binary.as_algebra(f"{a.name or 'A'}.free2")
    f1 = unary.as_algebra(f"{a.name or 'A'}.free1")

    g0_map = []
    g1_map = []
    for op in binary:
        at_e = tuple(op.table[x * size + e] for x in range(size))
        at_diag = tuple(op.table[x * size + x] for x in range(size))
        g0_map.append(unary.index[at_e])
        g1_map.append(unary.index[at_diag])
    g0 = Homomorphism(f2, f1, tuple(g0_map))
    g1 = Homomorphism(f2, f1, tuple(g1_map))

    delta_map = []
    for op in unary:
        as_binary = tuple(op.table[x] for x in range(size) for _ in range(size))
        delta_map.append(binary.index[as_binary])
    delta = Homomorphism(f1, f2, tuple(delta_map))
    return SubstitutionGraph(g0, g1, delta, binary, unary)


# --- identity verification ---------------------------------------------------

_TOKEN_RE = re.compile(r"\s*([A-Za-z_][A-Za-z0-9_]*|\d+|[(),=])")


def _tokenize(text: str) -> list[str]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            if text[pos:].strip():
                raise ValueError(f"bad character in identity: {text[pos:]!r}")
            break
        tokens.append(m.group(1))
        pos = m.end()
    return tokens


class _IdentityParser:
    def __init__(self, tokens: list[str], algebra: FiniteAlgebra, symbol: str, t_arity: int):
        self.tokens = tokens
        self.pos = 0
        self.algebra = algebra
        self.symbol = symbol
        self.t_arity = t_arity
        self.variables: set[int] = set()

    def peek(self) -> str | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self) -> str:
        tok = self.peek()
        if tok is None:
            raise ValueError("identity ended unexpectedly")
        self.pos += 1
        return tok

    def expect(self, tok: str):
        got = self.take()
        if got != tok:
            raise ValueError(f"expected {tok!r}, got {got!r}")

    def parse_term(self):
        tok = self.take()
        if tok.isdigit():
            value = int(tok)
            if value >= self.algebra.size:
                raise ValueError(f"element literal {value} out of range")
            return ("lit", value)
        if self.peek() == "(":
            self.take()
            args = []
            if self.peek() != ")":
                args.append(self.parse_term())
                while self.peek() == ",":
                    self.take()
                    args.append(self.parse_term())
            self.expect(")")
            return self._apply(tok, tuple(args))
        return self._atom(tok)

    def _apply(self, name: str, args: tuple):
        if name == self.symbol:
            if len(args) != self.t_arity:
                raise ValueError(
                    f"{name} takes {self.t_arity} arguments, got {len(args)}"
                )
            return ("t", args)
        if name in self.algebra.signature:
            arity = self.algebra.signature.arity(name)
            if len(args) != arity:
                raise ValueError(f"{name} takes {arity} arguments, got {len(args)}")
            return ("op", name, args)
        raise ValueError(f"unknown symbol {name!r}")

    def _atom(self, name: str):
        if name in _VAR_NAMES:
            index = _VAR_NAMES.index(name)
            self.variables.add(index)
            return ("var", index)
        if name == self.symbol and self.t_arity == 0:
            return ("t", ())
        if name in self.algebra.signature:
            if self.algebra.signature.arity(name) != 0:
                raise ValueError(f"{name} needs arguments")
            return ("op", name, ())
        raise ValueError(f"unknown name {name!r}")


def _eval_node(node, t: TermOperation, algebra: FiniteAlgebra, values: dict[int, int]) -> int:
    kind = node[0]
    if kind == "lit":
        return node[1]
    if kind == "var":
        return values[node[1]]
    if kind == "t":
        args = tuple(_eval_node(c, t, algebra, values) for c in node[1])
        return t.table[_encode(args, algebra.size)]
    _, sym, children = node
    args = tuple(_eval_node(c, t, algebra, values) for c in children)
    return algebra.apply(sym, args)


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
    for identity in identities:
        if identity.count("=") != 1:
            raise ValueError(f"identity needs exactly one '=': {identity!r}")
        lhs_text, rhs_text = identity.split("=")
        parser = _IdentityParser(_tokenize(lhs_text), a, symbol, t.arity)
        lhs = parser.parse_term()
        if parser.peek() is not None:
            raise ValueError(f"trailing tokens in {identity!r}")
        rparser = _IdentityParser(_tokenize(rhs_text), a, symbol, t.arity)
        rparser.variables = parser.variables
        rhs = rparser.parse_term()
        if rparser.peek() is not None:
            raise ValueError(f"trailing tokens in {identity!r}")
        variables = sorted(rparser.variables)
        for combo in itertools.product(a.carrier, repeat=len(variables)):
            values = dict(zip(variables, combo))
            if _eval_node(lhs, t, a, values) != _eval_node(rhs, t, a, values):
                assignment = tuple(
                    (variable_name(v), values[v]) for v in variables
                )
                return IdentityVerdict(False, identity, assignment)
    return IdentityVerdict(True)
