"""Finite algebras over arbitrary signatures.

Carriers are initial segments {0..n-1} of the non-negative integers and
operations are stored as flat value tables in lexicographic argument order
(leftmost argument most significant).  Everything here is immutable and
hashable, so results can be cached and compared structurally.

`_compose` applies a table to whole argument value streams at C level;
term evaluation in `terms` is built on it.  Homomorphism checks and induced
subalgebras evaluate an operation at every tuple over one column of values
through the row kernel `_product_values`: an argument prefix fixes a row of
the table, and each distinct row is gathered over the column once.  A
direct power needs no lookup at all: a point's position is its base-n code,
so `direct_power` computes its tables by code arithmetic.  Subuniverse
closures read the same rows (`_closure_rows`): a round gathers each row
at a whole batch of last arguments at once.  Partitions are lists of
smallest-member labels, kept so by `_merge`.  The congruence lattice
stops each principal congruence at the first merge whose already known
principal relates the generating pair.
"""

from __future__ import annotations

import functools
import itertools
import re
from dataclasses import dataclass, field
from operator import add, itemgetter, ne
from typing import Iterable, Iterator

from .errors import BudgetError, ParseError

DEFAULT_POWER_BUDGET = 4096
DEFAULT_CONGRUENCE_SIZE_BUDGET = 8


@dataclass(frozen=True)
class Signature:
    """Operation symbols with arities; arity-0 symbols are constants."""

    symbols: tuple[tuple[str, int], ...]

    def __post_init__(self):
        seen = set()
        for name, arity in self.symbols:
            if not name:
                raise ValueError("empty symbol name")
            if name in seen:
                raise ValueError(f"duplicate symbol {name!r}")
            if arity < 0:
                raise ValueError(f"negative arity for {name!r}")
            seen.add(name)

    def arity(self, name: str) -> int:
        for sym, arity in self.symbols:
            if sym == name:
                return arity
        raise KeyError(name)

    def __contains__(self, name: str) -> bool:
        return any(sym == name for sym, _ in self.symbols)

    @property
    def constant_symbols(self) -> tuple[str, ...]:
        return tuple(sym for sym, arity in self.symbols if arity == 0)

    @property
    def is_empty(self) -> bool:
        return not self.symbols


def _encode(args: Iterable[int], size: int) -> int:
    idx = 0
    for a in args:
        idx = idx * size + a
    return idx


def _checked_code(args: tuple[int, ...], arity: int, size: int) -> int:
    """The table index of ``arity`` arguments on the carrier {0..size-1}."""
    if len(args) != arity:
        raise ValueError(f"expected {arity} arguments, got {len(args)}")
    if not all(0 <= x < size for x in args):
        raise ValueError(f"arguments {args} out of range for size {size}")
    return _encode(args, size)


def _digits(size: int, length: int, position: int) -> Iterator[int]:
    """Digit ``position`` (leftmost first) of each index 0..size**length-1
    written with ``length`` digits in base ``size``, lazily: the value
    stream of a projection."""
    stride = size ** (length - 1 - position)
    return map(size.__rmod__, map(stride.__rfloordiv__, range(size ** length)))


@functools.lru_cache(maxsize=None)
def _projections(size: int, arity: int) -> tuple[tuple[int, ...], ...]:
    """Value tables of the ``arity`` projections over {0..size-1}."""
    return tuple(tuple(_digits(size, arity, i)) for i in range(arity))


def _compose(table, size: int, arg_tables, tab_len: int) -> Iterator[int]:
    """Pointwise values, ``tab_len`` of them, of the operation with flat
    ``table`` applied to argument value streams of that length (none for a
    constant), as a lazy stream; callers that keep it wrap it in tuple().

    Each cell's table index is accumulated leftmost-argument-first by
    ``map`` chains, so the work per cell runs at C level."""
    if not arg_tables:
        return itertools.repeat(table[0], tab_len)
    first, *rest = arg_tables
    idx = first
    for arg in rest:
        idx = map(add, map(size.__mul__, idx), arg)
    return map(table.__getitem__, idx)


def _product_values(table, size: int, column, arity: int) -> Iterator[int]:
    """The values f(column[i1], ..., column[ik]) of the operation f with
    flat ``table`` over {0..size-1} and the given arity, at every index
    tuple (i1, ..., ik) in ``itertools.product`` order, as a lazy stream.

    Row kernel: an argument prefix (all arguments but the last) fixes one
    row of the table, the ``size`` entries whose index starts with the
    prefix's values.  Each distinct row is gathered once over the whole
    column of last arguments at C level, and the stream concatenates the
    gathered rows in the lexicographic order of the prefixes."""
    if not arity:
        return iter((table[0],))
    codes = [0]  # row numbers of the argument prefixes
    for _ in range(arity - 1):
        codes = [code * size + v for code in codes for v in column]
    rows = {
        code: tuple(map(table[code * size:(code + 1) * size].__getitem__, column))
        for code in set(codes)
    }
    return itertools.chain.from_iterable(map(rows.__getitem__, codes))


@dataclass(frozen=True, eq=False)
class FiniteAlgebra:
    """A finite carrier {0..size-1} with one value table per symbol.

    Equality is structural (signature, size and tables; never the name),
    but an algebra is first compared by identity: the relation calculus
    checks carriers on every call, and those are almost always the same
    object."""

    signature: Signature
    size: int
    tables: tuple[tuple[int, ...], ...]
    name: str = field(default="", compare=False)

    def __post_init__(self):
        if self.size < 1:
            raise ValueError("carrier must have at least one element")
        if len(self.tables) != len(self.signature.symbols):
            raise ValueError("one table per symbol required")
        for (sym, arity), table in zip(self.signature.symbols, self.tables):
            if len(table) != self.size ** arity:
                raise ValueError(
                    f"table for {sym}/{arity} has {len(table)} entries, "
                    f"expected {self.size ** arity}"
                )
            if min(table) < 0 or max(table) >= self.size:
                v = next(v for v in table if not 0 <= v < self.size)
                raise ValueError(f"table entry {v} for {sym} out of range")
        # once, not per lru_cache lookup keyed by this algebra; set like a
        # field, since materializing __dict__ would slow every attribute load
        object.__setattr__(self, "_hash", hash((self.signature, self.size, self.tables)))

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.signature, self.size, self.tables) == (
            other.signature, other.size, other.tables
        )

    def __hash__(self) -> int:
        return self._hash

    def operations(self) -> Iterator[tuple[str, int, tuple[int, ...]]]:
        for (sym, arity), table in zip(self.signature.symbols, self.tables):
            yield sym, arity, table

    def table(self, name: str) -> tuple[int, ...]:
        for (sym, _), table in zip(self.signature.symbols, self.tables):
            if sym == name:
                return table
        raise KeyError(name)

    def apply(self, name: str, args: tuple[int, ...]) -> int:
        return self.table(name)[_checked_code(args, self.signature.arity(name), self.size)]

    def constant_value(self, name: str) -> int:
        if self.signature.arity(name) != 0:
            raise ValueError(f"{name!r} is not a constant symbol")
        return self.table(name)[0]

    @property
    def carrier(self) -> range:
        return range(self.size)


@dataclass(frozen=True)
class Homomorphism:
    """A structure-preserving map, validated at construction."""

    domain: FiniteAlgebra
    codomain: FiniteAlgebra
    map: tuple[int, ...]

    def __post_init__(self):
        _check_map_shape(self.domain, self.codomain, self.map)
        witness = _commutation_violation(self.domain, self.codomain, self.map)
        if witness is not None:
            sym, args = witness
            raise ValueError(
                f"map does not commute with {sym} at arguments {args}"
            )

    def __call__(self, x: int) -> int:
        return self.map[x]

    @property
    def image(self) -> frozenset[int]:
        return frozenset(self.map)

    @property
    def is_surjective(self) -> bool:
        return len(set(self.map)) == self.codomain.size

    @property
    def is_injective(self) -> bool:
        return len(set(self.map)) == self.domain.size


def _check_map_shape(a: FiniteAlgebra, b: FiniteAlgebra, m: tuple[int, ...]):
    if a.signature != b.signature:
        raise ValueError("domain and codomain must share a signature")
    if len(m) != a.size:
        raise ValueError(f"map has length {len(m)}, expected {a.size}")
    if min(m) < 0 or max(m) >= b.size:
        v = next(v for v in m if not 0 <= v < b.size)
        raise ValueError(f"map value {v} out of codomain range")


def _first_mismatch(left, right, size: int, arity: int):
    """The argument tuple of the first cell where two value streams over
    {0..size-1}^arity in lexicographic order differ, or None."""
    idx = next(itertools.compress(itertools.count(), map(ne, left, right)), None)
    if idx is None:
        return None
    return tuple(idx // size ** (arity - 1 - i) % size for i in range(arity))


def _commutation_violation(a, b, m):
    """First (symbol, args) where m fails to commute, or None: m∘f and
    f∘(m, ..., m) are compared as value streams over a's argument tuples,
    the second gathered by `_product_values` over m."""
    for (sym, arity, table), btable in zip(a.operations(), b.tables):
        pushed = _product_values(btable, b.size, m, arity)
        witness = _first_mismatch(map(m.__getitem__, table), pushed, a.size, arity)
        if witness is not None:
            return sym, witness
    return None


def check_homomorphism(
    a: FiniteAlgebra, b: FiniteAlgebra, m: Iterable[int]
) -> Homomorphism | tuple[str, tuple[int, ...]]:
    """Validate a candidate map; return the Homomorphism or the first
    (symbol, argument tuple) where commutation fails."""
    m = tuple(m)
    _check_map_shape(a, b, m)
    witness = _commutation_violation(a, b, m)
    if witness is not None:
        return witness
    return Homomorphism(a, b, m)


def identity_homomorphism(a: FiniteAlgebra) -> Homomorphism:
    return Homomorphism(a, a, tuple(range(a.size)))


def compose_homomorphisms(f: Homomorphism, g: Homomorphism) -> Homomorphism:
    """First f, then g."""
    if f.codomain != g.domain:
        raise ValueError("homomorphisms are not composable")
    return Homomorphism(f.domain, g.codomain, tuple(g.map[v] for v in f.map))


class HomomorphismSearch:
    """Backtracking search for the homomorphisms from the subuniverse
    `candidates.keys()` of `a` into `b` that map each element to one of its
    candidates.  Elements are assigned in increasing order and candidates
    tried in increasing order, so image tuples come out in lexicographic
    order.  Each operation application is checked once, when the latest
    element it mentions is assigned.  `nodes` counts the candidates tried;
    trying more than `node_budget` raises BudgetError.  Iterate once."""

    def __init__(
        self,
        a: FiniteAlgebra,
        b: FiniteAlgebra,
        candidates: dict[int, Iterable[int]],
        node_budget: int,
    ):
        if a.signature != b.signature:
            raise ValueError("domain and codomain must share a signature")
        self.domain = sorted(candidates)
        self.candidates = [sorted(candidates[x]) for x in self.domain]
        for x, cands in zip(self.domain, self.candidates):
            if not 0 <= x < a.size:
                raise ValueError(f"domain element {x} out of range")
            if cands and not 0 <= cands[0] <= cands[-1] < b.size:
                raise ValueError(f"candidates {cands} for {x} out of codomain range")
        if node_budget < 1:
            raise ValueError("node budget must be positive")
        self.node_budget = node_budget
        self.nodes = 0
        self._size = b.size
        position = {x: i for i, x in enumerate(self.domain)}
        self._checks: list[list] = [[] for _ in self.domain]
        for (_, arity, table), btable in zip(a.operations(), b.tables):
            values = _product_values(table, a.size, self.domain, arity)
            for combo, value in zip(itertools.product(self.domain, repeat=arity), values):
                if value not in position:
                    raise ValueError("candidate domain is not a subuniverse")
                last = max(position[c] for c in combo + (value,))
                self._checks[last].append((combo, value, btable))

    def __iter__(self) -> Iterator[tuple[int, ...]]:
        return self._extend(0, {})

    def _extend(self, i: int, image: dict[int, int]) -> Iterator[tuple[int, ...]]:
        if i == len(self.domain):
            yield tuple(image[x] for x in self.domain)
            return
        for u in self.candidates[i]:
            self.nodes += 1
            if self.nodes > self.node_budget:
                raise BudgetError(
                    f"homomorphism search exceeded {self.node_budget} nodes"
                )
            image[self.domain[i]] = u
            if all(
                btable[_encode((image[c] for c in combo), self._size)] == image[value]
                for combo, value, btable in self._checks[i]
            ):
                yield from self._extend(i + 1, image)


def direct_power(
    a: FiniteAlgebra, k: int, budget: int = DEFAULT_POWER_BUDGET
) -> FiniteAlgebra:
    """The k-th direct power; carrier tuples are encoded lexicographically.

    A point's position is its base-n code (n = a.size): the point
    (c_0, ..., c_{k-1}) sits at c_0·n^(k-1) + ... + c_{k-1}, the code of
    (c_0, ..., c_{k-2}) in the power below times n plus c_{k-1}.  So the
    power is the product of the power below and a, and each table is built
    row by row from theirs, see `_product_rows`."""
    if k < 1:
        raise ValueError("power must be positive")
    size = a.size ** k
    if size > budget:
        raise BudgetError(f"power carrier {size} exceeds budget {budget}")
    tables = []
    for arity, base in _operation_rows(a):
        rows = base
        for i in range(1, k):
            rows = _product_rows(rows, base, a.size ** i, a.size, arity)
        tables.append(tuple(itertools.chain.from_iterable(rows)))
    name = f"{a.name}^{k}" if a.name else ""
    return FiniteAlgebra(a.signature, size, tuple(tables), name)


def _operation_rows(a: FiniteAlgebra) -> list[tuple[int, list]]:
    """(arity, rows) per operation: row c of a table holds its values at
    the argument prefix (all arguments but the last) with code c."""
    n = a.size
    return [
        (arity, [table[c:c + n] for c in range(0, len(table), n)])
        for _, arity, table in a.operations()
    ]


def _product_rows(first: list, second: list, n1: int, n2: int, arity: int) -> list:
    """The rows of an operation on A x B, whose point (x, y) has code
    x·n2 + y, from its rows on A (n1 points) and on B (n2 points).

    The argument prefixes whose first coordinates have A-code c0 and second
    ones B-code c1 read, at the last argument (u, v), A's value at (c0, u)
    times n2 plus B's value at (c1, v): A's row at c0, each value times n2 and
    repeated n2 times, plus B's row at c1 tiled n1 times (a constant has no
    last argument).  On at most 256 points a row is bytes, and that is one
    big-int addition, with no carries, since every byte of the sum is a
    code below n1·n2; on more it is a tuple."""
    reps1, reps2 = (n2, n1) if arity else (1, 1)
    scaled = ([v * n2 for v in row] for row in first)
    # each value repeated reps1 times: zip reads reps1 copies of a row in step
    high = [list(itertools.chain.from_iterable(zip(*[row] * reps1))) for row in scaled]
    low = [row * reps2 for row in second]
    prefixes = [(0, 0)]
    for _ in range(arity - 1):
        prefixes = [(c0 * n1 + x, c1 * n2 + y) for c0, c1 in prefixes
                    for x in range(n1) for y in range(n2)]
    if n1 * n2 > 256:
        return [tuple(map(add, high[c0], low[c1])) for c0, c1 in prefixes]
    width = len(low[0])
    high, low = ([int.from_bytes(bytes(row), "big") for row in part] for part in (high, low))
    return [(high[c0] + low[c1]).to_bytes(width, "big") for c0, c1 in prefixes]


def _induced_tables(
    a: FiniteAlgebra, points: list[tuple[int, ...]]
) -> tuple[tuple[int, ...], ...]:
    """Tables of the subalgebra of a power of ``a`` on ``points``, a list
    of equal-length coordinate tuples closed under the operations: each
    entry is the position of a point, argument tuples of positions run in
    ``itertools.product`` order.  A point outside the list raises KeyError.

    Each coordinate's values come from `_product_values` over that
    coordinate's column, and the points they form are looked up once."""
    position = {p: i for i, p in enumerate(points)}
    columns = tuple(zip(*points))
    tables = []
    for _, arity, table in a.operations():
        coords = [_product_values(table, a.size, column, arity) for column in columns]
        tables.append(tuple(map(position.__getitem__, zip(*coords))))
    return tuple(tables)


def subalgebra_closure(a: FiniteAlgebra, seed: Iterable[int]) -> frozenset[int]:
    """Least subuniverse containing the seed and all constants."""
    seed = set(seed)
    if seed and (min(seed) < 0 or max(seed) >= a.size):
        s = min(s for s in seed if not 0 <= s < a.size)
        raise ValueError(f"seed element {s} out of range")
    return frozenset().union(*_closure_rounds(_closure_rows(a), seed, frozenset()))


# the kinds of a round's argument choices: the elements the previous round
# added, those and all earlier ones, and the earlier ones only
_NEW, _ALL, _OLD = 0, 1, 2


def _closure_rows(a: FiniteAlgebra, square: bool = False) -> tuple:
    """What `_closure_rounds` reads of ``a``, or of its square, built from
    a's own rows (`_product_rows`) without building it: the size, the
    constants' values, the plan of a round, a batch's gatherer and the
    joiner of its gathered rows."""
    size, operations = a.size, _operation_rows(a)
    # a commutative f(x, y) needs no (old, new) step; a's square commutes iff a does
    steps = [1 if k == 2 and list(zip(*r)) == r else k for k, r in operations]
    if square:
        operations = [(k, _product_rows(rows, rows, size, size, k)) for k, rows in operations]
        size *= size
    if size <= 256:
        def cut(row):
            return bytes(row).ljust(256, b"\0")

        def gatherer(batch):
            return bytes(batch).translate

        def joiner(seen):
            known = bytes(seen)
            return lambda gathered: b"".join(gathered).translate(None, known)
    else:
        cut, joiner = tuple, lambda seen: itertools.chain.from_iterable

        def gatherer(batch):
            # the first element repeated, so that it always returns a tuple
            return itemgetter(batch[0], *batch)
    constants = tuple(rows[0][0] for arity, rows in operations if not arity)
    plan = []
    for (arity, rows), positions in zip(operations, steps):
        rows = tuple(map(cut, rows))
        for i in range(positions):
            kinds = (_OLD,) * i + (_NEW,) + (_ALL,) * (arity - 1 - i)
            plan.append((rows.__getitem__, kinds[:-1], kinds[-1]))
    return size, constants, tuple(plan), gatherer, joiner


def _closure_rounds(
    rows: tuple, seed: set[int], closed: frozenset[int]
) -> Iterator[set[int]]:
    """The elements that each round of the closure of the in-range `seed`
    over the subuniverse `closed` adds, as disjoint sets: first the seed
    and the constants, then the values they generate, until a round adds
    nothing.  A caller may stop early.

    Each round applies every operation only to the argument tuples that
    contain an element added in the previous round: the first such
    position ranges over the new elements, earlier positions over the old
    ones and later positions over all of them, so every tuple is applied
    at most once and tuples inside `closed` never are.  A commutative
    binary operation skips (old, new), whose values (new, old) give.

    Row layout (`_closure_rows`): row c of an operation is the slice
    c·n..(c+1)·n of its flat table, its values at the argument prefix (all
    arguments but the last) with lexicographic code c.  The plan holds one
    step per operation and argument position, one for a commutative binary
    operation: the row getter and the kinds of the prefix's choices and of
    the last argument's.  A step's tuples that share a prefix read one row
    at the step's batch of last arguments, one gather at C level: on at
    most 256 points a row is a 256-byte table and the gather
    ``bytes(batch).translate(row)``, on more a row is a tuple and the
    gather an ``itemgetter``.  On bytes, the joiner of a step's gathers
    also deletes the values already seen, most of them, with one
    ``translate``.  Rounds are sets, so what a round adds does not depend
    on the order of the gathers."""
    size, constants, plan, gatherer, joiner = rows
    fresh = set(seed)
    fresh.update(constants)
    members = list(closed)
    seen = set(closed)
    fresh -= seen
    while fresh:
        yield fresh
        seen |= fresh
        old, new = members, list(fresh)
        members = old + new
        choices = (new, members, old)
        batches = (gatherer(new), gatherer(members))
        concat = joiner(seen)
        fresh = set()
        for get, prefix, last in plan:
            if prefix:
                codes = choices[prefix[0]]
                for kind in prefix[1:]:
                    codes = [c * size + x for c in codes for x in choices[kind]]
            else:
                codes = (0,)
            fresh.update(concat(map(batches[last], map(get, codes))))
        fresh -= seen


@functools.lru_cache(maxsize=None)
def constants_subalgebra(a: FiniteAlgebra) -> frozenset[int]:
    """Subalgebra generated by the constants; empty iff there are none."""
    return subalgebra_closure(a, ())


def image_factorization(
    f: Homomorphism,
) -> tuple[Homomorphism, FiniteAlgebra, Homomorphism]:
    """Split f as surjection onto its image followed by the inclusion."""
    values = sorted(set(f.map))
    reindex = {v: i for i, v in enumerate(values)}
    b = f.codomain
    # closed: the image of a homomorphism is a subalgebra
    tables = _induced_tables(b, [(v,) for v in values])
    image = FiniteAlgebra(b.signature, len(values), tables)
    surjection = Homomorphism(f.domain, image, tuple(reindex[v] for v in f.map))
    inclusion = Homomorphism(image, b, tuple(values))
    return surjection, image, inclusion


@dataclass(frozen=True)
class Congruence:
    """A compatible equivalence relation, stored as the map sending each
    element to the smallest member of its block."""

    algebra: FiniteAlgebra
    partition: tuple[int, ...]

    def __post_init__(self):
        a, p = self.algebra, self.partition
        if len(p) != a.size:
            raise ValueError("partition length must equal carrier size")
        for x, rep in enumerate(p):
            if not 0 <= rep <= x or p[rep] != rep:
                raise ValueError("partition is not in smallest-member form")
        # compatibility via single-argument translations (Mal'cev): each
        # element must land in the block of its representative's image
        for t in _translations(a):
            for x, rep in enumerate(p):
                if p[t[x]] != p[t[rep]]:
                    raise ValueError(f"partition not compatible: {x} ~ {rep}")

    def relates(self, x: int, y: int) -> bool:
        return self.partition[x] == self.partition[y]

    def blocks(self) -> tuple[tuple[int, ...], ...]:
        by_rep: dict[int, list[int]] = {}
        for x, rep in enumerate(self.partition):
            by_rep.setdefault(rep, []).append(x)
        return tuple(tuple(block) for _, block in sorted(by_rep.items()))

    @property
    def block_count(self) -> int:
        return len(set(self.partition))

    @classmethod
    def from_pair_set(
        cls, a: FiniteAlgebra, pairs: Iterable[tuple[int, int]]
    ) -> "Congruence":
        """Build from an equivalence given extensionally as its pair set."""
        pairs = set(pairs)
        for x, y in sorted(pairs):
            if not (0 <= x < a.size and 0 <= y < a.size):
                raise ValueError(f"pair ({x},{y}) out of range")
        labels = list(a.carrier)
        for x, y in pairs:
            if labels[x] != labels[y]:
                _merge(labels, x, y)
        partition = tuple(labels)
        for x in a.carrier:
            for y in a.carrier:
                if (partition[x] == partition[y]) != ((x, y) in pairs):
                    raise ValueError("pair set is not an equivalence relation")
        return cls(a, partition)


@functools.lru_cache(maxsize=None)
def _translations(a: FiniteAlgebra) -> tuple[tuple[int, ...], ...]:
    """The distinct unary translations x -> f(c1..x..ck) of a other than
    constants and the identity, as flat tables.  An equivalence is a
    congruence iff every translation preserves it (Mal'cev)."""
    n, identity = a.size, tuple(a.carrier)
    found: dict[tuple[int, ...], None] = {}
    for _, arity, table in a.operations():
        for pos in range(arity):
            # x sits at argument position pos: stride n**(arity-1-pos)
            stride = n ** (arity - 1 - pos)
            for start in range(len(table)):
                if start // stride % n == 0:
                    t = table[start:start + n * stride:stride]
                    if t != identity and len(set(t)) > 1:
                        found[t] = None
    return tuple(found)


def _merge(labels: list[int], x: int, y: int) -> None:
    """Merge the blocks of x and y in place: every element labelled with
    the larger of their labels takes the smaller.  Labels that are each
    block's smallest member stay so."""
    keep, drop = sorted((labels[x], labels[y]))
    labels[:] = [keep if label == drop else label for label in labels]


def _unions(
    a: FiniteAlgebra, labels: list[int], pairs: Iterable[tuple[int, int]]
) -> Iterator[tuple[int, int]]:
    """Merge the blocks of every pair in `labels`, then move every merge
    by every unary translation until the partition is compatible; yields
    each pair that merged two blocks, as it is merged.  A caller may stop
    early."""
    queue: list[tuple[int, int]] = []
    for x, y in pairs:
        if labels[x] != labels[y]:
            _merge(labels, x, y)
            queue.append((x, y))
            yield x, y
    translations = _translations(a)
    while queue:
        x, y = queue.pop()
        for t in translations:
            u, v = t[x], t[y]
            if labels[u] != labels[v]:
                _merge(labels, u, v)
                queue.append((u, v))
                yield u, v


def congruence_generated(
    a: FiniteAlgebra, pairs: Iterable[tuple[int, int]]
) -> Congruence:
    """Least congruence relating every given pair: smallest-member labels
    in which every merge is queued and moved by every unary translation."""
    pairs = sorted(set(pairs))
    if pairs and (min(map(min, pairs)) < 0 or max(map(max, pairs)) >= a.size):
        x, y = next(p for p in pairs if not (0 <= p[0] < a.size and 0 <= p[1] < a.size))
        raise ValueError(f"pair ({x},{y}) out of range")
    labels = list(a.carrier)
    for _ in _unions(a, labels, pairs):
        pass
    return Congruence(a, tuple(labels))


def _join_partitions(p: tuple[int, ...], q: tuple[int, ...]) -> tuple[int, ...]:
    labels = list(p)
    for x, y in enumerate(q):
        if labels[x] != labels[y]:
            _merge(labels, x, y)
    return tuple(labels)


def all_congruences(
    a: FiniteAlgebra, size_budget: int = DEFAULT_CONGRUENCE_SIZE_BUDGET
) -> tuple[Congruence, ...]:
    """Every congruence, as the join-closure of the principal ones.

    Returned in a canonical order (partition tuples descending, so the
    discrete congruence comes first and the full one last).

    The principal congruences Cg(x, y) are generated for x < y in
    ``itertools.combinations`` order, and each stops early at the first
    union (u, v) whose principal is already known and relates x and y:
    (u, v) in Cg(x, y) gives Cg(u, v) <= Cg(x, y), and (x, y) in Cg(u, v)
    gives the converse, so Cg(x, y) = Cg(u, v).  Stopping changes no
    partition, and the lattice is a set sorted at the end, so neither the
    result nor its order depends on where a generation stopped.
    """
    if a.size > size_budget:
        raise BudgetError(
            f"carrier size {a.size} exceeds congruence budget {size_budget}"
        )
    # every congruence is a join of principal ones, so joining each new
    # one with the distinct principal ones reaches the whole lattice
    discrete = congruence_generated(a, ())
    found = {discrete.partition: discrete}
    principal_of: dict[tuple[int, int], tuple[int, ...]] = {}
    for x, y in itertools.combinations(a.carrier, 2):
        labels = list(a.carrier)
        for u, v in _unions(a, labels, [(x, y)]):
            known = principal_of.get((u, v) if u < v else (v, u))
            if known is not None and known[x] == known[y]:
                partition = known
                break
        else:
            partition = tuple(labels)
        principal_of[x, y] = partition
        if partition not in found:
            found[partition] = Congruence(a, partition)
    principals = list(found)[1:]
    worklist = list(principals)
    while worklist:
        p = worklist.pop()
        for q in principals:
            j = _join_partitions(p, q)
            if j not in found:
                # equivalence join of congruences is again a congruence
                found[j] = Congruence(a, j)
                worklist.append(j)
    ordered = sorted(found, reverse=True)
    return tuple(found[p] for p in ordered)


# --- document formats ---------------------------------------------------------

# The one tokenizer of algebra documents, relation documents and
# identities: a token is a name, a run of ASCII digits, or any single
# character other than a space or a tab.  The grammars use the
# punctuation = / [ ] ( ) , and no form accepts any other character.
_TOKEN_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_^.+-]*|[0-9]+|[^ \t]")


def _tokens(text: str) -> list[str]:
    return _TOKEN_RE.findall(text)


_KINDS = dict.fromkeys("0123456789", "<int>") | dict.fromkeys(
    "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_", "<name>"
)


def _kind(token: str) -> str:
    """``<name>`` for a name, ``<int>`` for a run of digits, and the token
    itself for punctuation and stray characters: the first character
    decides, since the tokenizer takes names and digit runs whole."""
    return _KINDS.get(token[0], token)


def _content_lines(text: str) -> Iterator[tuple[int, str]]:
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if line.strip():
            yield lineno, line


def _line_error(
    filename: str, lineno: int, line: str, index: int, message: str
) -> ParseError:
    """A ParseError at the column of token ``index`` of a content line, or
    just past the line's end when it has fewer tokens."""
    starts = [m.start() for m in _TOKEN_RE.finditer(line)]
    column = starts[index] + 1 if index < len(starts) else len(line) + 1
    return ParseError(filename, lineno, column, message)


_EXPECTED = {"<name>": "a name", "<int>": "an integer"}


def _read_line(filename: str, lineno: int, line: str, form: str) -> list:
    """The slot values of a content line read against ``form``, a line
    of tokens separated by spaces: ``<name>`` takes a name, ``<int>`` a
    run of digits as an int, ``<ints>`` any number of runs as a list of
    ints, and every other token must appear as written.  The first token
    that does not fit raises ParseError at its column."""
    tokens = _tokens(line)
    values: list = []
    at = 0
    for slot in form.split():
        if slot == "<ints>":
            end = at
            while end < len(tokens) and _kind(tokens[end]) == "<int>":
                end += 1
            values.append(list(map(int, tokens[at:end])))
            at = end
            continue
        token = tokens[at] if at < len(tokens) else None
        if token != slot:  # else a literal in place
            if token is None or _kind(token) != slot:
                message = f"expected {_EXPECTED.get(slot, repr(slot))}"
                raise _line_error(filename, lineno, line, at, message)
            values.append(int(token) if slot == "<int>" else token)
        at += 1
    if at < len(tokens):
        raise _line_error(filename, lineno, line, at, "unexpected trailing text")
    return values


def parse_algebra(text: str, filename: str = "<algebra>") -> FiniteAlgebra:
    """Parse an algebra description document.

    Format: ``algebra <name>``, ``size <n>``, then ``const <sym> = <elem>``
    and ``op <sym>/<arity> = [e0 e1 ...]`` lines; ``#`` starts a comment.
    """
    lines = list(_content_lines(text))
    if not lines:
        raise ParseError(filename, 1, 1, "empty document")
    (name,) = _read_line(filename, *lines[0], "algebra <name>")
    if len(lines) < 2:
        raise ParseError(filename, lines[0][0], 1, "missing size line")
    lineno, line = lines[1]
    (size,) = _read_line(filename, lineno, line, "size <int>")
    if size < 1:
        raise _line_error(filename, lineno, line, 1, "size must be at least 1")

    symbols: list[tuple[str, int]] = []
    tables: list[tuple[int, ...]] = []
    seen: set[str] = set()
    for lineno, line in lines[2:]:
        keyword = _TOKEN_RE.search(line).group()  # the first token
        # errors name a token by its index in the form read: the symbol is
        # token 1, the "[" of a table token 5, its first value first_entry
        if keyword == "const":
            sym, value = _read_line(filename, lineno, line, "const <name> = <int>")
            arity, entries, first_entry = 0, [value], 3
        elif keyword == "op":
            form = "op <name> / <int> = [ <ints> ]"
            sym, arity, entries = _read_line(filename, lineno, line, form)
            first_entry = 6
        else:
            raise _line_error(filename, lineno, line, 0, "expected a const or op line")
        if sym in seen:
            raise _line_error(filename, lineno, line, 1, f"duplicate symbol {sym!r}")
        if len(entries) != size ** arity:
            raise _line_error(
                filename, lineno, line, 5,
                f"table for {sym}/{arity} has {len(entries)} entries, "
                f"expected {size ** arity}",
            )
        if max(entries) >= size:
            k = next(k for k, v in enumerate(entries) if v >= size)
            what = "table entry" if arity else "constant value"
            raise _line_error(
                filename, lineno, line, first_entry + k,
                f"{what} {entries[k]} out of range for size {size}",
            )
        seen.add(sym)
        symbols.append((sym, arity))
        tables.append(tuple(entries))
    return FiniteAlgebra(Signature(tuple(symbols)), size, tuple(tables), name)


def serialize_algebra(a: FiniteAlgebra) -> str:
    """Canonical document for an algebra: constants first, then operations."""
    out = [f"algebra {a.name}", f"size {a.size}"]
    for sym, arity, table in a.operations():
        if arity == 0:
            out.append(f"const {sym} = {table[0]}")
    for sym, arity, table in a.operations():
        if arity > 0:
            body = " ".join(str(v) for v in table)
            out.append(f"op {sym}/{arity} = [{body}]")
    return "\n".join(out) + "\n"
