"""Expected answers that do not come from starcheck.

Two sources only: facts from theory (divisor counts, Mal'tsev varieties,
subtraction terms) and brute force over the definitions, written here
from scratch on plain tables and bit masks.  A pair (a, b) of a relation
on an n-element carrier is bit a * n + b, as in the program's reports.
"""

from __future__ import annotations

import itertools

from inputs import Tables, _index

CONDITION_KEYS = (
    "congruence-pairs-star-permute",
    "equivalence-pairs-star-permute",
    "reflexive-left-star-symmetric",
    "reflexive-star-symmetric",
)


def divisors(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


def constants_closure(t: Tables) -> frozenset[int]:
    """The subuniverse generated by the constants, by naive fixpoint."""
    members = {table[0] for _, arity, table in t.ops if arity == 0}
    while True:
        new = set(members)
        for _, arity, table in t.ops:
            if arity == 0:
                continue
            for args in itertools.product(sorted(members), repeat=arity):
                new.add(table[_index(args, t.size)])
        if new == members:
            return frozenset(members)
        members = new


def null_class(t: Tables, ctx: str) -> frozenset[int]:
    """Trivial elements: everything (total), the named base constant
    (pointed:<name>) or the constants-generated subuniverse (proto)."""
    if ctx == "total":
        return frozenset(range(t.size))
    if ctx == "proto":
        return constants_closure(t)
    base = ctx.split(":", 1)[1]
    return frozenset({int(base) if base.isdigit() else t.const(base)})


# --- relations as bit masks ----------------------------------------------------


def pairs(mask: int, n: int) -> list[tuple[int, int]]:
    return [divmod(i, n) for i in range(n * n) if mask >> i & 1]


def opposite(mask: int, n: int) -> int:
    out = 0
    for a, b in pairs(mask, n):
        out |= 1 << (b * n + a)
    return out


def compose(r: int, s: int, n: int) -> int:
    """First r, then s."""
    out = 0
    for x, y in pairs(r, n):
        for y2, z in pairs(s, n):
            if y == y2:
                out |= 1 << (x * n + z)
    return out


def star(mask: int, n: int, nulls: frozenset[int]) -> int:
    return sum(1 << (a * n + b) for a, b in pairs(mask, n) if a in nulls)


def left_witness(mask: int, n: int, nulls: frozenset[int]):
    """First (a, b) with a trivial, (a, b) in the relation, (b, a) not."""
    for a in sorted(nulls):
        for b in range(n):
            if mask >> (a * n + b) & 1 and not mask >> (b * n + a) & 1:
                return (a, b)
    return None


def symmetric_witness(mask: int, n: int, nulls: frozenset[int]):
    """(witness, from_opposite) for star-symmetry, or (None, False)."""
    w = left_witness(mask, n, nulls)
    if w is not None:
        return w, False
    w = left_witness(opposite(mask, n), n, nulls)
    return w, w is not None


def is_compatible(t: Tables, mask: int) -> bool:
    n = t.size
    ps = pairs(mask, n)
    for _, arity, table in t.ops:
        for combo in itertools.product(ps, repeat=arity):
            a = table[_index((p[0] for p in combo), n)]
            b = table[_index((p[1] for p in combo), n)]
            if not mask >> (a * n + b) & 1:
                return False
    return True


def reflexive_compatible(t: Tables) -> list[int]:
    """Every reflexive compatible relation, by testing all supersets of the
    diagonal.  Only for carriers of at most 4 elements."""
    n = t.size
    if n > 4:
        raise ValueError("brute force is limited to 4 elements")
    diag = sum(1 << (x * n + x) for x in range(n))
    free = [i for i in range(n * n) if not diag >> i & 1]
    out = []
    for bits in range(1 << len(free)):
        mask = diag
        for j, i in enumerate(free):
            if bits >> j & 1:
                mask |= 1 << i
        if is_compatible(t, mask):
            out.append(mask)
    return sorted(out)


def is_equivalence(mask: int, n: int) -> bool:
    return opposite(mask, n) == mask and compose(mask, mask, n) == mask


def audit_expectation(t: Tables, ctx: str) -> list[tuple[str, str, int, int]]:
    """(condition, verdict, examined, failures) for the four audit suites,
    by brute force over every reflexive compatible relation."""
    n = t.size
    nulls = null_class(t, ctx)
    relations = reflexive_compatible(t)
    congruences = [r for r in relations if is_equivalence(r, n)]
    permute_failures = sum(
        compose(star(s, n, nulls), r, n) != compose(star(r, n, nulls), s, n)
        for r in congruences
        for s in congruences
    )
    left_failures = sum(left_witness(r, n, nulls) is not None for r in relations)
    full_failures = sum(symmetric_witness(r, n, nulls)[0] is not None for r in relations)
    pairs_examined = len(congruences) ** 2
    rows = [
        (permute_failures, pairs_examined),
        (permute_failures, pairs_examined),
        (left_failures, len(relations)),
        (full_failures, len(relations)),
    ]
    return [
        (key, "FAIL" if failures else "PASS", examined, failures)
        for key, (failures, examined) in zip(CONDITION_KEYS, rows)
    ]


def maltsev_audit_expectation(congruences: int) -> list[tuple[str, str, int, int]]:
    """In a Mal'tsev algebra every reflexive compatible relation is a
    congruence, and a variety with subtraction terms passes all four
    suites."""
    examined = (congruences ** 2, congruences ** 2, congruences, congruences)
    return [(key, "PASS", e, 0) for key, e in zip(CONDITION_KEYS, examined)]


# --- terms -------------------------------------------------------------------


def eval_term(term, t: Tables, assignment: tuple[int, ...]) -> int:
    """Evaluate a syntax tree (variables carry ``index``, applications
    ``symbol`` and ``args``) on the tables directly."""
    if hasattr(term, "index"):
        return assignment[term.index]
    args = tuple(eval_term(arg, t, assignment) for arg in term.args)
    return t.table(term.symbol)[_index(args, t.size)]


def is_subtraction_term(term, t: Tables, e: int) -> bool:
    """s(x, x) = e and s(x, e) = x for every element x."""
    return all(
        eval_term(term, t, (x, x)) == e and eval_term(term, t, (x, e)) == x
        for x in range(t.size)
    )


def is_maltsev_term(term, t: Tables) -> bool:
    """p(x, x, y) = y and p(x, y, y) = x for all x, y."""
    return all(
        eval_term(term, t, (x, x, y)) == y and eval_term(term, t, (x, y, y)) == x
        for x in range(t.size)
        for y in range(t.size)
    )


# --- CLI reports ---------------------------------------------------------------


def endomorphisms(t: Tables) -> list[tuple[int, ...]]:
    n = t.size
    out = []
    for m in itertools.product(range(n), repeat=n):
        if all(
            m[table[idx]] == table[_index((m[x] for x in args), n)]
            for _, arity, table in t.ops
            for idx, args in enumerate(itertools.product(range(n), repeat=arity))
        ):
            out.append(m)
    return out


def identity_report(t: Tables, ctx: str) -> list[str]:
    """CHECK lines of ``check-identities --machine``.  Every law is a
    theorem of the calculus, so each is PASS; the case counts follow the
    documented family: all relations of a bare set of at most 3 elements,
    otherwise the reflexive compatible relations with their opposites and
    stars, and the endomorphisms that fix the base point."""
    n = t.size
    nulls = null_class(t, ctx)
    if not t.ops and n <= 3:
        family = set(range(1 << (n * n)))
    else:
        base = reflexive_compatible(t)
        family = set(base)
        family.update(opposite(r, n) for r in base)
        family.update(star(r, n, nulls) for r in base)
    endos = endomorphisms(t)
    if ctx.startswith("pointed:"):
        (b,) = nulls
        endos = [m for m in endos if m[b] == b]
    f = len(family)
    counts = [
        ("law-compose-star", f * f),
        ("law-star-pullback", f),
        ("law-star-idempotent-deflationary", f),
        ("law-inverse-image-star", len(endos) * f),
        ("law-kernel-pair-inverse-image", len(endos)),
    ]
    return [f"CHECK {key} PASS cases={cases}" for key, cases in counts]


def check_relation_report(
    t: Tables, ctx: str, mask: int, prop: str, relation_name: str
) -> tuple[str, int]:
    """The full ``check-relation --machine`` report and its exit code."""
    n = t.size
    nulls = null_class(t, ctx)
    pair_text = "{" + ",".join(f"({a},{b})" for a, b in pairs(mask, n)) + "}"
    compatible = "true" if (not t.ops or is_compatible(t, mask)) else "false"
    if prop == "left-star-symmetric":
        witness, opposite_side = left_witness(mask, n, nulls), False
    else:
        witness, opposite_side = symmetric_witness(mask, n, nulls)
    check = f"CHECK {prop} {'PASS' if witness is None else 'FAIL'}"
    if witness is not None:
        check += f" witness=({witness[0]},{witness[1]})"
        if opposite_side:
            check += " side=opposite"
    lines = [
        f"RUN command=check-relation algebra={t.name} relation={relation_name} "
        f"context={ctx} property={prop}",
        f"INFO relation={pair_text} compatible={compatible}",
        check,
    ]
    return "\n".join(lines) + "\n", 0 if witness is None else 1


def ring_partitions(n: int, perm: tuple[int, ...]) -> set[str]:
    """Congruences of Z_n are the cosets of dZ_n, one per divisor d; rendered
    as in a CONGRUENCE line after relabeling x to perm[x]."""
    out = set()
    for d in divisors(n):
        blocks: dict[int, list[int]] = {}
        for x in range(n):
            blocks.setdefault(x % d, []).append(perm[x])
        ordered = sorted(sorted(b) for b in blocks.values())
        out.add(",".join("{" + ",".join(map(str, b)) + "}" for b in ordered))
    return out
