"""Decision procedures for star-symmetry and star-permutability.

The relation checkers scan concrete pair sets through `relations`, which
owns the pair-bit layout: left star-symmetry walks only the star's pairs
(the relation masked by the cached null-row mask) and a permutability
witness is the first pair of the two composites' difference, so both
witnesses are the lexicographically first.  The graph checker searches
for the connecting homomorphism between the kernels of the two legs with
`algebra.HomomorphismSearch`, and is INCONCLUSIVE on a graph without
legs.  The whole-algebra audit runs four condition suites over the
congruences and the enumerated reflexive compatible relations of one
algebra.  Suites 1-2 read each permutability witness off the stacked
star composites of `relations` (one composition per congruence, not two
per ordered pair), and suites 3-4 read both symmetry witnesses off each
relation's mask.
A single finite algebra can only certify counterexamples: a
failure refutes the variety it generates, while a clean audit is evidence,
not a proof (positive variety-level certificates come from the term
searches, whose identities are sound for the whole generated variety).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .algebra import (
    DEFAULT_CONGRUENCE_SIZE_BUDGET,
    Congruence,
    FiniteAlgebra,
    Homomorphism,
    HomomorphismSearch,
    _closure_rounds,
    _closure_rows,
    all_congruences,
)
from .contexts import IdealContext, n_kernel, validate_context
from .errors import BudgetError
from .relations import (
    Relation,
    _mask_pairs,
    _null_rows,
    _star_permute_witnesses,
    _transpose_mask,
    compose,
    congruence_relation,
    opposite,
    star,
)

DEFAULT_RELATION_BUDGET = 1024
DEFAULT_SIGMA_NODE_BUDGET = 100_000


class Verdict(enum.Enum):
    PASS = "PASS"
    FAIL = "FAIL"
    INCONCLUSIVE = "INCONCLUSIVE"


@dataclass(frozen=True)
class SymmetryVerdict:
    """Outcome of a star-symmetry check.

    The witness, present exactly when the check fails, is a pair (a, b)
    with a trivial, (a, b) in the relation but (b, a) not; from_opposite
    marks witnesses found on the opposite relation."""

    holds: bool
    witness: tuple[int, int] | None = None
    from_opposite: bool = False


def is_left_star_symmetric(ctx: IdealContext, r: Relation) -> SymmetryVerdict:
    """Left star-symmetry: every pair of the star must appear reversed in
    the relation."""
    if not r.is_square:
        raise ValueError("need a square relation")
    for a, b in _mask_pairs(r.mask & _null_rows(ctx, r.source), r.source.size):
        if (b, a) not in r:
            return SymmetryVerdict(False, (a, b))
    return SymmetryVerdict(True)


def is_star_symmetric(ctx: IdealContext, r: Relation) -> SymmetryVerdict:
    """Star-symmetry: both the relation and its opposite are left
    star-symmetric; the relation side is checked first."""
    direct = is_left_star_symmetric(ctx, r)
    if not direct.holds:
        return direct
    reverse = is_left_star_symmetric(ctx, opposite(r))
    if not reverse.holds:
        return SymmetryVerdict(False, reverse.witness, from_opposite=True)
    return SymmetryVerdict(True)


@dataclass(frozen=True)
class PermutabilityVerdict:
    """Comparison of the two star composites of a pair of relations.

    via_second_star composes the star of the second relation with the
    first; via_first_star the other way around.  The witness is the
    smallest pair in the symmetric difference."""

    holds: bool
    witness: tuple[int, int] | None
    via_second_star: Relation
    via_first_star: Relation


def check_star_permutes(
    ctx: IdealContext, first: Relation, second: Relation
) -> PermutabilityVerdict:
    if not (first.is_square and second.is_square) or first.source != second.source:
        raise ValueError("need two square relations on the same carrier")
    via_second = compose(star(ctx, second), first)
    via_first = compose(star(ctx, first), second)
    diff = via_second.mask ^ via_first.mask
    witness = next(_mask_pairs(diff, first.source.size), None)
    return PermutabilityVerdict(witness is None, witness, via_second, via_first)


@dataclass(frozen=True)
class GraphSymmetryVerdict:
    """Outcome of the graph check; ``budget`` names the budget that an
    INCONCLUSIVE verdict spent: ``clone-cells`` for a missing leg (the
    substitution graph's ``budget`` holds its counts), ``sigma-nodes
    used/limit`` for the node budget."""

    verdict: Verdict
    sigma: tuple[tuple[int, int], ...] | None = None
    blocked_element: int | None = None
    nodes: int = 0
    budget: str | None = None


def graph_left_star_symmetric(
    ctx: IdealContext,
    g0: Homomorphism | None,
    g1: Homomorphism | None,
    node_budget: int = DEFAULT_SIGMA_NODE_BUDGET,
) -> GraphSymmetryVerdict:
    """Search for a homomorphism sigma between the kernels of the two legs
    that swaps their images: g1(sigma(t)) = g0(t) and g0(sigma(t)) = g1(t).

    sigma is the first map `HomomorphismSearch` finds from K0 into K1, so
    it is reproducible.  An exhausted node budget yields INCONCLUSIVE,
    which is distinct from a definite failure.  A missing leg (None, the
    legs of a substitution graph whose free models did not close) yields
    INCONCLUSIVE as well, naming the clone budget: FAIL only comes from
    complete legs."""
    if node_budget < 1:
        raise ValueError("sigma node budget must be positive")
    if g0 is None or g1 is None:
        return GraphSymmetryVerdict(Verdict.INCONCLUSIVE, budget="clone-cells")
    if g0.domain != g1.domain or g0.codomain != g1.codomain:
        raise ValueError("graph legs must share domain and codomain")
    k1 = sorted(n_kernel(ctx, g1))
    candidates: dict[int, list[int]] = {}
    for t in sorted(n_kernel(ctx, g0)):
        cands = [u for u in k1 if g0.map[u] == g1.map[t] and g1.map[u] == g0.map[t]]
        if not cands:
            return GraphSymmetryVerdict(Verdict.FAIL, blocked_element=t)
        candidates[t] = cands

    search = HomomorphismSearch(g0.domain, g0.domain, candidates, node_budget)
    try:
        images = next(iter(search), None)
    except BudgetError:
        # the search raises on the first node past the budget
        budget = f"sigma-nodes {min(search.nodes, node_budget)}/{node_budget}"
        return GraphSymmetryVerdict(
            Verdict.INCONCLUSIVE, nodes=search.nodes, budget=budget
        )
    if images is None:
        return GraphSymmetryVerdict(Verdict.FAIL, nodes=search.nodes)
    sigma = tuple(zip(search.domain, images))
    return GraphSymmetryVerdict(Verdict.PASS, sigma=sigma, nodes=search.nodes)


@dataclass(frozen=True)
class ReflexiveEnumeration:
    relations: tuple[Relation, ...]
    truncated: bool


def _principal(
    rows: tuple,
    diag: frozenset[int],
    p: int,
    principal_of: dict[int, frozenset[int]],
) -> frozenset[int]:
    """Sg(diag + {p}), or the known principal of the first pair it
    generates whose principal contains p."""
    members = set(diag)
    for fresh in _closure_rounds(rows, {p}, diag):
        for x in fresh:
            if x in principal_of and p in principal_of[x]:
                return principal_of[x]
        members |= fresh
    return frozenset(members)


def enumerate_reflexive_compatible(
    a: FiniteAlgebra, budget: int = DEFAULT_RELATION_BUDGET
) -> ReflexiveEnumeration:
    """All subalgebras of the square that contain the diagonal.

    Close the diagonal D, compute the distinct principal subuniverses
    P_p = Sg(D + {p}), and join-close them: R v P is the closure of P - R
    over the already closed R.  This is complete because every reflexive
    compatible R is the join of the P_p for p in R, and a join is reached
    from the principals by adding one principal at a time.  At most
    `budget` (at least 1) relations are kept and `truncated` is set
    exactly when more exist; which subset a truncated run keeps follows
    the join order and is not a canonical choice.  Output is sorted by
    bit-set encoding.

    Pairs are closed in increasing order, and a closure stops at the first
    generated x whose principal is known and contains p: x in P_p gives
    P_x <= P_p and p in P_x gives P_p <= P_x, so P_p = P_x.  Equal unions
    R | P, as masks, are closed once.  The masks of the diagonal and of
    the principals are summed from per-point bits; a join's mask is R | P
    plus the bits of what its closure adds after its first round, P - R.

    The diagonal, the principals and the joins run the closure kernel
    `algebra._closure_rounds` directly, on the square's rows, which
    `_closure_rows` builds from a's own, once per call.  Their seeds are in
    range by construction, so they skip `subalgebra_closure`'s checks.
    The kernel yields sets, so the principals, the join order and the
    output do not depend on the order in which a round gathers."""
    if budget < 1:
        raise ValueError("relation budget must be positive")
    rows = _closure_rows(a, square=True)
    diag = frozenset().union(
        *_closure_rounds(rows, {x * a.size + x for x in a.carrier}, frozenset())
    )
    principal_of: dict[int, frozenset[int]] = {}
    for p in range(a.size * a.size):
        if p not in diag:
            principal_of[p] = _principal(rows, diag, p, principal_of)
    found: list[tuple[frozenset[int], int]] = []
    seen: set[int] = set()  # the masks found, and the unions already closed
    bit = [1 << q for q in range(a.size * a.size)].__getitem__

    def admit(r: frozenset[int], mask: int) -> bool:
        """Record r with its mask if new; False when that would exceed the budget."""
        if mask in seen:
            return True
        if len(found) >= budget:
            return False
        seen.add(mask)
        found.append((r, mask))
        return True

    admit(diag, sum(map(bit, diag)))
    truncated = not all(admit(p, sum(map(bit, p))) for p in dict.fromkeys(principal_of.values()))
    principals = found[1:]  # all of them, unless truncated
    i = 1  # D v P = P, so joins start from the principals
    while not truncated and i < len(found):
        r, r_mask = found[i]
        i += 1
        for p, p_mask in principals:
            # found relations are closed, so a found union is the join, and
            # a union closed before has its join found
            if (union := r_mask | p_mask) == r_mask or union in seen:
                continue
            # the first round is p - r, inside union; the rounds are disjoint
            first, *later = _closure_rounds(rows, p - r, r)
            if not admit(r.union(first, *later), union | sum(map(bit, set().union(*later)))):
                truncated = True
                break
            seen.add(union)

    masks = sorted(mask for _, mask in found)
    relations = tuple(Relation(a, a, mask, compatible=True) for mask in masks)
    return ReflexiveEnumeration(relations, truncated)


@dataclass(frozen=True)
class PermutabilityWitness:
    first: Congruence
    second: Congruence
    pair: tuple[int, int]


@dataclass(frozen=True)
class SymmetryWitness:
    relation: Relation
    pair: tuple[int, int]
    from_opposite: bool = False


@dataclass(frozen=True)
class ConditionOutcome:
    key: str
    verdict: Verdict
    examined: int
    witnesses: tuple[object, ...] = ()
    note: str = ""


@dataclass(frozen=True)
class AuditReport:
    algebra: str
    context: str
    conditions: tuple[ConditionOutcome, ...]
    truncated: bool = False

    @property
    def passed(self) -> bool:
        return all(c.verdict is Verdict.PASS for c in self.conditions)

    def condition(self, key: str) -> ConditionOutcome:
        for c in self.conditions:
            if c.key == key:
                return c
        raise KeyError(key)


def audit_algebra(
    ctx: IdealContext,
    a: FiniteAlgebra,
    max_relations: int = DEFAULT_RELATION_BUDGET,
    congruence_size_budget: int = DEFAULT_CONGRUENCE_SIZE_BUDGET,
) -> AuditReport:
    """Run the four condition suites on one algebra.

    1 and 2 check star-permutability over ordered pairs of congruences
    (compatible equivalence relations coincide with congruences here, so
    suite 2 runs over the same set and says so); 3 and 4 check left
    star-symmetry and star-symmetry over every enumerated reflexive
    compatible relation.  The witnesses are the public checkers': 1-2 read
    them off stacked composites, 3-4 take the first pair of m & null & ~t,
    else of t & null & ~m (opposite), m and t the masks of r and r^op."""
    validate_context(ctx, a)
    congruences = all_congruences(a, size_budget=congruence_size_budget)
    masks = [congruence_relation(c).mask for c in congruences]
    witnesses = tuple(
        PermutabilityWitness(congruences[i], congruences[j], pair)
        for i, j, pair in _star_permute_witnesses(ctx, a, masks)
    )
    permutes = (Verdict.FAIL if witnesses else Verdict.PASS, len(congruences) ** 2, witnesses)
    note = "compatible equivalence relations coincide with congruences here"
    conditions = [
        ConditionOutcome("congruence-pairs-star-permute", *permutes),
        ConditionOutcome("equivalence-pairs-star-permute", *permutes, note=note),
    ]

    enum = enumerate_reflexive_compatible(a, budget=max_relations)
    left_witnesses: list[SymmetryWitness] = []
    full_witnesses: list[SymmetryWitness] = []
    n, null = a.size, _null_rows(ctx, a)
    for r in enum.relations:
        t = _transpose_mask(r.mask, n, n)
        if left := r.mask & null & ~t:
            witness = SymmetryWitness(r, next(_mask_pairs(left, n)))
            left_witnesses.append(witness)
            full_witnesses.append(witness)
        elif right := t & null & ~r.mask:
            full_witnesses.append(SymmetryWitness(r, next(_mask_pairs(right, n)), True))

    note = "enumeration truncated by budget" if enum.truncated else ""
    passed = Verdict.INCONCLUSIVE if enum.truncated else Verdict.PASS
    for key, found in (
        ("reflexive-left-star-symmetric", left_witnesses),
        ("reflexive-star-symmetric", full_witnesses),
    ):
        verdict = Verdict.FAIL if found else passed
        conditions.append(
            ConditionOutcome(key, verdict, len(enum.relations), tuple(found), note=note)
        )
    return AuditReport(
        a.name or "<anonymous>", str(ctx), tuple(conditions), truncated=enum.truncated
    )
