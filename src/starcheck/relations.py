"""Binary relations between finite algebras, stored as bit-sets.

A pair (a, b) occupies bit a * target.size + b of the mask, so increasing
bit order is lexicographic pair order.  Every decision about that layout
lives here: `_mask_pairs` is the one walker over the set bits of a mask,
and `_null_rows` caches, per (context, algebra), the mask of the square's
pairs whose first component is trivial.  Composition, opposites, kernel
pairs, inverse images and the star operator live here too; the star of a
relation keeps exactly the pairs whose first component is a trivial
element of the context, an AND with the null-row mask.

Composition works on whole masks, column by row: `_compose_masks` ORs,
over each middle element y, column y of the first relation (one bit per
row) times row y of the second, one big-int product per middle element.
An inverse image f^-1(s) is f ; s ; f^op on the same kernel, from the
graph masks that `_graph_masks` lays out.  The opposite of a relation is
a transpose on whole masks: `_transpose_mask` gathers each column into a
row with one big-int product.

A family of k square masks on n elements stacks into one int, member i
at bit i * n^2 (`_stack_masks`).  The stack is itself a (k * n) by n
relation whose member i fills rows i * n to i * n + n - 1, and its rows
stay n bits apart, so `_compose_masks(stack, r, k * n, n, n)` is the
stack of every s_i ; r with no carry from one member into the next, and
`_pull_back_stack` pulls every member back along one endomorphism.  A
per-member mask such as the null rows is tiled over the stack by one
product with `_column_bits(k, n^2)`, a bit at the start of every member,
so the stack of the members' stars is one AND.
Only this module builds and reads stacks: `_star_composites`, star(s_j) ; r
for every member s_j at once, serves the audit's permutability suites and
check-identities' law-compose-star.

The public functions check their inputs on every call; callers that have
admitted their relations already may run the mask kernels directly.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from operator import add
from typing import Iterable, Iterator

from .algebra import Congruence, FiniteAlgebra, Homomorphism, _product_values, direct_power
from .contexts import IdealContext, _null_elements, n_kernel


class Relation:
    """A set of pairs between two carriers, with a cached compatibility
    certificate (true iff the pair set is a subalgebra of the product)."""

    __slots__ = ("source", "target", "mask", "_compatible")

    def __init__(
        self,
        source: FiniteAlgebra,
        target: FiniteAlgebra,
        mask: int,
        compatible: bool | None = None,
    ):
        if not 0 <= mask < 1 << (source.size * target.size):
            raise ValueError("mask out of range for the carriers")
        self.source = source
        self.target = target
        self.mask = mask
        self._compatible = compatible

    @classmethod
    def from_pairs(
        cls,
        source: FiniteAlgebra,
        target: FiniteAlgebra,
        pairs: Iterable[tuple[int, int]],
    ) -> "Relation":
        mask = 0
        for a, b in pairs:
            if not (0 <= a < source.size and 0 <= b < target.size):
                raise ValueError(f"pair ({a},{b}) out of range")
            mask |= 1 << (a * target.size + b)
        return cls(source, target, mask)

    def pairs(self) -> Iterator[tuple[int, int]]:
        return _mask_pairs(self.mask, self.target.size)

    def __contains__(self, pair: tuple[int, int]) -> bool:
        a, b = pair
        return bool(self.mask >> (a * self.target.size + b) & 1)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Relation)
            and self.source == other.source
            and self.target == other.target
            and self.mask == other.mask
        )

    def __hash__(self) -> int:
        return hash((self.source, self.target, self.mask))

    def __len__(self) -> int:
        return self.mask.bit_count()

    def __repr__(self) -> str:
        return f"Relation({pair_set_text(self)})"

    @property
    def is_square(self) -> bool:
        return self.source == self.target

    @property
    def compatible(self) -> bool:
        if self._compatible is None:
            self._compatible = self.verify_compatible()
        return self._compatible

    def verify_compatible(self) -> bool:
        """Recompute the compatibility certificate from scratch: each
        operation's values over every tuple of pairs, gathered on the
        pairs' two columns (`_product_values`), must be pairs again."""
        source, target = self.source, self.target
        if source.signature != target.signature:
            raise ValueError("source and target must share a signature")
        pairs = list(self.pairs())
        firsts, seconds = zip(*pairs) if pairs else ((), ())
        nt = target.size
        codes = {x * nt + y for x, y in pairs}
        for (_, arity, stable), ttable in zip(source.operations(), target.tables):
            lefts = _product_values(stable, source.size, firsts, arity)
            rights = _product_values(ttable, nt, seconds, arity)
            if not codes.issuperset(map(add, map(nt.__mul__, lefts), rights)):
                return False
        return True


def _mask_pairs(mask: int, nt: int) -> Iterator[tuple[int, int]]:
    """The pairs of a mask over a target of size nt in increasing bit (that
    is, lexicographic) order, visiting only the set bits."""
    while mask:
        yield divmod((mask & -mask).bit_length() - 1, nt)
        mask &= mask - 1


def pair_set_text(r: Relation) -> str:
    return "{" + ",".join(f"({a},{b})" for a, b in r.pairs()) + "}"


def diagonal(a: FiniteAlgebra) -> Relation:
    # (x, x) is bit x * (n + 1): one bit every n + 1 places
    return Relation(a, a, _column_bits(a.size, a.size + 1), compatible=True)


def full_relation(a: FiniteAlgebra) -> Relation:
    return Relation(a, a, (1 << a.size * a.size) - 1, compatible=True)


@functools.lru_cache(maxsize=None)
def _column_bits(rows: int, width: int) -> int:
    """One bit per row, at bits 0, width, 2 * width, ...: the mask that
    reads one column out of a relation whose rows are width bits apart."""
    return ((1 << rows * width) - 1) // ((1 << width) - 1)


def _relayout(mask: int, rows: int, width: int, new_width: int) -> int:
    """The same rows, moved from width bits apart to new_width bits apart;
    every set bit must lie in the narrower of the two row widths."""
    keep = (1 << min(width, new_width)) - 1
    out = 0
    for x in range(rows):
        out |= (mask >> x * width & keep) << x * new_width
    return out


def _compose_masks(rmask: int, smask: int, nx: int, ny: int, nz: int) -> int:
    """The mask of r ; s from the masks of r (nx by ny) and s (ny by nz).

    Column y of r, one bit per row x, times row y of s puts a copy of that
    row into every row x of the result; with the rows of r laid out at
    least nz bits apart the copies never carry into each other, so the
    composite is an OR of ny products.  Rows are re-laid at the common
    width, and back, only when the middle and target sizes differ."""
    width = nz if nz > ny else ny  # max(ny, nz) without a builtin call per composition
    if width != ny:
        rmask = _relayout(rmask, nx, ny, width)
    column = _column_bits(nx, width)
    row = (1 << nz) - 1
    mask = 0
    for y in range(ny):
        mask |= (rmask >> y & column) * (smask >> y * nz & row)
    return mask if width == nz else _relayout(mask, nx, width, nz)


def compose(r: Relation, s: Relation) -> Relation:
    """First r, then s: pairs (x, z) with (x, y) in r and (y, z) in s for
    some middle y."""
    if r.target != s.source:
        raise ValueError("relations are not composable")
    mask = _compose_masks(r.mask, s.mask, r.source.size, s.source.size, s.target.size)
    hint = True if (r._compatible and s._compatible) else None
    return Relation(r.source, s.target, mask, compatible=hint)


def _transpose_mask(mask: int, ns: int, nt: int) -> int:
    """The mask of r^op from the mask of r (ns by nt).

    Column y of r, one bit per row x at x * width, times the gather word
    with one bit every width - 1 places puts bit x of the column at
    (ns - 1) * (width - 1) + x: that window is row y of the result.  With
    the rows at least ns bits apart no two partial products share a
    place, so nothing carries.  Rows are re-laid at the common width only
    when the source is the larger carrier."""
    width = ns if ns > nt else nt
    if width == 1:
        return mask
    if width != nt:
        mask = _relayout(mask, ns, nt, width)
    column = _column_bits(ns, width)
    gather = _column_bits(ns, width - 1)
    shift = (ns - 1) * (width - 1)
    row = (1 << ns) - 1
    out = 0
    for y in range(nt):
        out |= ((mask >> y & column) * gather >> shift & row) << y * ns
    return out


def opposite(r: Relation) -> Relation:
    mask = _transpose_mask(r.mask, r.source.size, r.target.size)
    return Relation(r.target, r.source, mask, compatible=r._compatible)


def _equal_label_relation(a: FiniteAlgebra, labels: tuple[int, ...]) -> Relation:
    """Pairs of elements with equal labels; compatible because the labels
    are a homomorphism's values or a congruence's partition."""
    classes: dict[int, int] = {}
    for x, label in enumerate(labels):
        classes[label] = classes.get(label, 0) | 1 << x
    mask = 0
    for x, label in enumerate(labels):
        mask |= classes[label] << (x * a.size)
    return Relation(a, a, mask, compatible=True)


def kernel_pair(f: Homomorphism) -> Relation:
    """Pairs identified by f; always a congruence's pair set."""
    return _equal_label_relation(f.domain, f.map)


def _graph_masks(f: Homomorphism) -> tuple[int, int]:
    """The masks of the graph of f, {(a, f(a))}, and of its opposite."""
    nd, nc = f.domain.size, f.codomain.size
    graph = graph_op = 0
    for a, b in enumerate(f.map):
        graph |= 1 << (a * nc + b)
        graph_op |= 1 << (b * nd + a)
    return graph, graph_op


def _pull_back_mask(graph: int, graph_op: int, smask: int, nd: int, nc: int) -> int:
    """The mask of f ; s ; f^op from the graph masks of f : nd -> nc and
    the mask of s, a square relation on nc elements."""
    return _compose_masks(_compose_masks(graph, smask, nd, nc, nc), graph_op, nd, nc, nd)


def _stack_masks(masks: list[int], n: int) -> int:
    """The stack of square masks on n elements: member i at bit i * n^2."""
    stack = 0
    for i, mask in enumerate(masks):
        stack |= mask << i * n * n
    return stack


def _pull_back_stack(f: Homomorphism, stack: int, k: int) -> int:
    """The stack of f ; s_i ; f^op from a stack of k square masks s_i, for
    an endomorphism f.  Composing the stack with the graph of f^op does
    the right factor for every member at once; the left factor moves row
    f(x) of every member to row x, one shift and mask per element."""
    n = f.domain.size
    _, graph_op = _graph_masks(f)
    right = _compose_masks(stack, graph_op, k * n, n, n)
    first_rows = ((1 << n) - 1) * _column_bits(k, n * n)
    out = 0
    for x, fx in enumerate(f.map):
        out |= (right >> fx * n & first_rows) << x * n
    return out


def inverse_image(f: Homomorphism, s: Relation) -> Relation:
    """Pairs of the domain whose images land in s: f ; s ; f^op, composing
    the masks of the graph of f and of its opposite.  The graph is
    compatible because f is a homomorphism, so the result is whenever s
    is."""
    if s.source != f.codomain or s.target != f.codomain:
        raise ValueError("relation must be square on the codomain of f")
    mask = _pull_back_mask(*_graph_masks(f), s.mask, f.domain.size, f.codomain.size)
    hint = True if s._compatible else None
    return Relation(f.domain, f.domain, mask, compatible=hint)


@functools.lru_cache(maxsize=None)
def _null_rows(ctx: IdealContext, a: FiniteAlgebra) -> int:
    """The mask of the pairs of a's square whose first component is
    trivial: one full row per null element."""
    row = (1 << a.size) - 1
    return sum(row << (x * a.size) for x in _null_elements(ctx, a))


@functools.lru_cache(maxsize=None)
def _square_kernel(ctx: IdealContext, a: FiniteAlgebra) -> tuple[FiniteAlgebra, frozenset[int]]:
    """The square of a, pair (x, y) at code x * n + y as in a mask, and the
    n-kernel of its first projection, validated once as a homomorphism.
    Its budget is its own size, so the route caps no carrier."""
    square = direct_power(a, 2, budget=a.size ** 2)
    first = Homomorphism(square, a, tuple(c // a.size for c in square.carrier))
    return square, n_kernel(ctx, first)


def _require_star_input(ctx: IdealContext, r: Relation) -> int:
    """The null-row mask of r's carrier, once r is known to be a valid star
    input; an inadmissible context raises ContextError first."""
    if not r.is_square:
        raise ValueError("star needs a square relation")
    rows = _null_rows(ctx, r.source)
    if not r.source.signature.is_empty and not r.compatible:
        raise ValueError("star over a non-empty signature needs a compatible relation")
    return rows


def star(ctx: IdealContext, r: Relation) -> Relation:
    """Largest sub-star: the pairs of r whose first component is trivial."""
    rows = _require_star_input(ctx, r)
    hint = True if r._compatible else None
    return Relation(r.source, r.source, r.mask & rows, compatible=hint)


def _family_stacks(ctx: IdealContext, a: FiniteAlgebra, masks: list[int]):
    """The stacks of square masks on a and of their stars, and the tiled
    null rows."""
    rows = _null_rows(ctx, a) * _column_bits(len(masks), a.size ** 2)
    stack = _stack_masks(masks, a.size)
    return stack, stack & rows, rows


def _star_composites(star_stack: int, masks: list[int], n: int) -> Iterator[int]:
    """For each member r of a family of square masks on n elements, given
    the stack of the members' stars, the stack whose member j is
    star(s_j) ; r: one composition per r covers every s_j."""
    for r in masks:
        yield _compose_masks(star_stack, r, len(masks) * n, n, n)


def _star_permute_witnesses(ctx: IdealContext, a: FiniteAlgebra, masks: list[int]):
    """(i, j, pair), i outer, for each ordered pair of members whose
    composites star(s_j) ; s_i and star(s_i) ; s_j differ: pair is the first
    pair of their XOR, the witness of `checkers.check_star_permutes`."""
    n, k = a.size, len(masks)
    block = (1 << n * n) - 1
    _, star_stack, _ = _family_stacks(ctx, a, masks)
    members = [
        [stack >> j * n * n & block for j in range(k)]
        for stack in _star_composites(star_stack, masks, n)
    ]
    for i in range(k):
        for j in range(k):
            if diff := members[i][j] ^ members[j][i]:
                yield i, j, next(_mask_pairs(diff, n))


def _compose_star_sides(ctx: IdealContext, a: FiniteAlgebra, masks: list[int]):
    """Per member r, the stacks of star(s_j ; r) and star(s_j) ; r: both
    sides of law-compose-star for every s_j."""
    n, k = a.size, len(masks)
    stack, star_stack, rows = _family_stacks(ctx, a, masks)
    lhs = (_compose_masks(stack, r, k * n, n, n) & rows for r in masks)
    return zip(lhs, _star_composites(star_stack, masks, n))


def _inverse_image_star_sides(ctx: IdealContext, a: FiniteAlgebra, endos, masks: list[int]):
    """Per endomorphism f, the stacks of star(f^-1(s_j)) and
    star(f^-1(star(s_j))): both sides of law-inverse-image-star."""
    k = len(masks)
    stack, star_stack, rows = _family_stacks(ctx, a, masks)
    for f in endos:
        yield _pull_back_stack(f, stack, k) & rows, _pull_back_stack(f, star_stack, k) & rows


def star_via_pullback(ctx: IdealContext, r: Relation) -> Relation:
    """Same pair set as star, computed by the independent route: the
    n-kernel of r's first leg r0 : r -> X, which by the pasting lemma is
    the pullback along r's inclusion into X^2 of the n-kernel of the
    square's first projection (`_square_kernel`).  Each r is re-certified
    a subuniverse of the square, one `_product_values` pass per operation
    over the square's table at r's pair codes, and a failure raises
    RuntimeError; then r's codes are cut down to the kernel."""
    _require_star_input(ctx, r)
    n = r.source.size
    square, kernel = _square_kernel(ctx, r.source)
    codes = [a * n + b for a, b in r.pairs()]
    closed = set(codes)
    for sym, arity, table in square.operations():
        if not closed.issuperset(_product_values(table, square.size, codes, arity)):
            raise RuntimeError(f"pair set certified compatible is not closed under {sym}")
    hint = True if r._compatible else None
    return Relation(r.source, r.source, sum(1 << c for c in closed & kernel), compatible=hint)


def star_kernel(ctx: IdealContext, f: Homomorphism) -> Relation:
    return star(ctx, kernel_pair(f))


def graph_image(g0: Homomorphism, g1: Homomorphism) -> Relation:
    """The relation {(g0(t), g1(t))}; a subalgebra of the square, hence
    compatible."""
    if g0.domain != g1.domain or g0.codomain != g1.codomain:
        raise ValueError("graph legs must share domain and codomain")
    x = g0.codomain
    mask = 0
    for t in g0.domain.carrier:
        mask |= 1 << (g0.map[t] * x.size + g1.map[t])
    return Relation(x, x, mask, compatible=True)


@dataclass(frozen=True)
class RelationPredicates:
    reflexive: bool
    symmetric: bool
    transitive: bool
    compatible: bool


def relation_predicates(r: Relation) -> RelationPredicates:
    if not r.is_square:
        raise ValueError("predicates need a square relation")
    return RelationPredicates(
        reflexive=not diagonal(r.source).mask & ~r.mask,
        symmetric=r.mask == opposite(r).mask,
        transitive=not compose(r, r).mask & ~r.mask,
        compatible=r.compatible,
    )


def congruence_relation(c: Congruence) -> Relation:
    """The pair set of a congruence as a relation."""
    return _equal_label_relation(c.algebra, c.partition)
