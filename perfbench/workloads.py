"""The three workloads: their inputs and the check of every verdict.

An input is one verdict-bearing call chain.  ``squares`` and
``term-search`` call the library in the benchmark's own process;
``calculus`` runs one CLI command per fresh interpreter.  Every check
compares against ``oracle`` (theory or brute force) or against a golden
report, never against another starcheck answer.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import inputs as gen
import oracle

# decided, correct, note
Outcome = tuple[bool, bool, str]


@dataclass
class LibraryInput:
    label: str
    run: Callable[[], object]
    check: Callable[[object], Outcome]


@dataclass
class Command:
    label: str
    argv: list[str]
    check: Callable[[str, int], Outcome]


# --- squares -----------------------------------------------------------------

# (base algebra, context, relabelings per pass, congruences of the square
# from theory, or None to brute-force the four suites on the square).
# The copy counts place the median and the tail (the 11th slowest) inside
# the group of monoid01 squares rather than on the edge between two groups,
# where noise alone would move them.
SQUARES = (
    (lambda: gen.ring(4), "proto", 1, 9),  # ideals of Z4 x Z4: 3 * 3
    (lambda: gen.ring(3), "proto", 4, 4),
    (lambda: gen.boolean(1), "proto", 3, None),
    (lambda: gen.heyting2(), "proto", 3, None),
    (lambda: gen.ring(2), "proto", 3, None),
    (lambda: gen.monoid01(), "pointed:zero", 12, None),
)


def squares_inputs(seed: int, sc) -> list[LibraryInput]:
    """Copies are interleaved, so that a burst of interference on the
    machine does not hit every copy of one square."""
    rng = gen.seeded_rng(seed, "squares")
    groups = []
    for make, ctx_text, copies, congruences in SQUARES:
        sq = gen.square(make())
        if congruences is None:
            expected = functools.cache(functools.partial(oracle.audit_expectation, sq, ctx_text))
        else:
            expected = functools.partial(oracle.maltsev_audit_expectation, congruences)
        group = []
        for copy in range(copies):
            tables = gen.relabel(sq, gen.permutation(rng, sq.size))
            algebra = sc.parse_algebra(tables.text(), sq.name)
            ctx = sc.parse_context(ctx_text)
            group.append(LibraryInput(
                f"audit {sq.name} {ctx_text} #{copy}",
                functools.partial(
                    sc.audit_algebra, ctx, algebra, congruence_size_budget=algebra.size
                ),
                functools.partial(_check_audit, expected),
            ))
        groups.append(group)
    return [item for row in itertools.zip_longest(*groups) for item in row if item]


def _check_audit(expected, report) -> Outcome:
    observed = [
        (c.key, c.verdict.value, c.examined, len(c.witnesses)) for c in report.conditions
    ]
    decided = not report.truncated and all(v != "INCONCLUSIVE" for _, v, _, _ in observed)
    want = expected()
    if not decided:
        wrong = [o for o, w in zip(observed, want) if o[1] != "INCONCLUSIVE" and o[1] != w[1]]
        return False, not wrong, f"undecided {observed}"
    return True, observed == want, f"got {observed}, want {want}"


# --- term-search -------------------------------------------------------------

# (kind, base algebra, whether the variety has the term, relabelings per
# pass).  The copies place the median among the bool4 searches and the
# tail (the 11th slowest) among the graph routes of ringZ2 and bool2.
TERM_SEARCHES = (
    ("esub", lambda: gen.ring(3), True, 1),
    ("esub", lambda: gen.ring(4), True, 1),
    ("esub", lambda: gen.ring(5), True, 1),
    ("esub", lambda: gen.ring(6), True, 1),
    ("esub", lambda: gen.ring(7), True, 1),
    ("esub", lambda: gen.boolean(2), True, 9),
    ("esub", lambda: gen.heyting2(), True, 1),
    # x - y + e exists, but the clone budget runs out first today
    ("esub", lambda: gen.ring(8), True, 1),
    ("esub", lambda: gen.ring(9), True, 1),
    # join semilattices with a bottom constant: every term is monotone
    ("esub", lambda: gen.monoid01(), False, 1),
    ("esub", lambda: gen.chain(3), False, 1),
    ("esub", lambda: gen.chain(4), False, 1),
    ("esub", lambda: gen.chain(5), False, 1),
    ("maltsev", lambda: gen.group_z2(), True, 1),
    ("maltsev", lambda: gen.monoid01(), False, 1),
    ("maltsev", lambda: gen.chain(3), False, 1),
    # graph route, at the first constant; ringZ3's free models close but
    # the substitution graph does not finish within the time limit today
    ("graph", lambda: gen.ring(2), True, 4),
    ("graph", lambda: gen.boolean(1), True, 1),
    ("graph", lambda: gen.heyting2(), True, 1),
    ("graph", lambda: gen.group_z2(), True, 1),
    ("graph", lambda: gen.monoid01(), False, 1),
    ("graph", lambda: gen.chain(3), False, 1),
    ("graph", lambda: gen.ring(3), True, 1),
)


def term_search_inputs(seed: int, sc) -> list[LibraryInput]:
    rng = gen.seeded_rng(seed, "term-search")
    out = []
    for kind, make, exists, copies in TERM_SEARCHES:
        base = make()
        for copy in range(copies):
            tables = gen.relabel(base, gen.permutation(rng, base.size))
            algebra = sc.parse_algebra(tables.text(), tables.name)
            if kind == "esub":
                run = functools.partial(sc.find_e_subtractive_terms, algebra)
                check = functools.partial(_check_esub, sc, tables, exists)
            elif kind == "maltsev":
                run = functools.partial(sc.find_maltsev_term, algebra)
                check = functools.partial(_check_maltsev, sc, tables, exists)
            else:
                e = tables.ops[0][2][0]
                run = functools.partial(_graph_route, sc, algebra, e)
                check = functools.partial(_check_graph, sc, exists)
            out.append(LibraryInput(f"{kind} {tables.name} #{copy}", run, check))
    return out


def _graph_route(sc, algebra, e):
    graph = sc.substitution_graph(algebra, e)
    return sc.graph_left_star_symmetric(sc.ProtoPointed(), graph.g0, graph.g1)


def _check_esub(sc, tables, exists, result) -> Outcome:
    targets = oracle.constants_closure(tables)
    bad = [
        e for e, op in result.terms
        if not sc.verify_term_identities(op, [f"s(x, x) = {e}", f"s(x, {e}) = x"]).holds
        or not oracle.is_subtraction_term(op.term, tables, e)
    ]
    status = result.status.value
    found = {e for e, _ in result.terms}
    note = f"{status} found={sorted(found)} targets={sorted(targets)} bad={bad}"
    if bad or not found <= targets:
        return status != "inconclusive", False, note
    if status == "inconclusive":
        return False, True, note
    if status == "found":
        return True, exists and found == targets, note
    return True, not exists and result.complete and not found, note


def _check_maltsev(sc, tables, exists, result) -> Outcome:
    status = result.status.value
    note = f"{status} clone={result.clone_size}"
    if result.term is not None:
        ok = (
            sc.verify_term_identities(
                result.term, ["p(x, x, y) = y", "p(x, y, y) = x"], symbol="p"
            ).holds
            and oracle.is_maltsev_term(result.term.term, tables)
        )
        return True, exists and ok, note
    if status == "inconclusive":
        return False, True, note
    return True, not exists and result.complete, note


def _check_graph(sc, exists, verdict) -> Outcome:
    value = verdict.verdict.value
    if value == "INCONCLUSIVE":
        return False, True, value
    return True, (value == "PASS") == exists, value


# --- calculus ------------------------------------------------------------------

# The fixed CLI matrix whose reports are committed as golden files, pinned
# here so that the workload does not change when the matrix does.
GOLDEN_RUNS = [
    ("audit__bool2__proto", "audit --algebra corpus/bool2.alg --context proto --machine"),
    ("audit__bool4__proto", "audit --algebra corpus/bool4.alg --context proto --machine"),
    ("audit__heyt2__proto", "audit --algebra corpus/heyt2.alg --context proto --machine"),
    ("audit__ringZ2__proto", "audit --algebra corpus/ringZ2.alg --context proto --machine"),
    ("audit__ringZ4__proto", "audit --algebra corpus/ringZ4.alg --context proto --machine"),
    ("audit__ringZ2xZ2__proto", "audit --algebra corpus/ringZ2xZ2.alg --context proto --machine"),
    ("audit__monoid01__pointed0", "audit --algebra corpus/monoid01.alg --context pointed:0 --machine"),
    ("audit__groupZ2__pointede", "audit --algebra corpus/groupZ2.alg --context pointed:e --machine"),
    ("audit__set1__total", "audit --algebra corpus/set1.alg --context total --machine"),
    ("audit__set2__total", "audit --algebra corpus/set2.alg --context total --machine"),
    ("audit__set3__pointed0", "audit --algebra corpus/set3.alg --context pointed:0 --machine"),
    ("congruences__ringZ4", "congruences --algebra corpus/ringZ4.alg --machine"),
    ("congruences__bool4", "congruences --algebra corpus/bool4.alg --machine"),
    ("congruences__set3", "congruences --algebra corpus/set3.alg --machine"),
    ("find-terms__bool2__esub__proto", "find-terms --algebra corpus/bool2.alg --kind e-subtractive --context proto --machine"),
    ("find-terms__heyt2__esub__proto", "find-terms --algebra corpus/heyt2.alg --kind e-subtractive --context proto --machine"),
    ("find-terms__ringZ2__esub__proto", "find-terms --algebra corpus/ringZ2.alg --kind e-subtractive --context proto --machine"),
    ("find-terms__ringZ4__esub__proto", "find-terms --algebra corpus/ringZ4.alg --kind e-subtractive --context proto --machine"),
    ("find-terms__ringZ2xZ2__esub__proto", "find-terms --algebra corpus/ringZ2xZ2.alg --kind e-subtractive --context proto --machine"),
    ("find-terms__bool4__esub__proto", "find-terms --algebra corpus/bool4.alg --kind e-subtractive --context proto --machine"),
    ("find-terms__monoid01__esub__pointed0", "find-terms --algebra corpus/monoid01.alg --kind e-subtractive --context pointed:0 --machine"),
    ("find-terms__groupZ2__maltsev", "find-terms --algebra corpus/groupZ2.alg --kind maltsev --machine"),
    ("find-terms__monoid01__maltsev", "find-terms --algebra corpus/monoid01.alg --kind maltsev --machine"),
    ("check-relation__set3_r1__pointed0", "check-relation --algebra corpus/set3.alg --relation corpus/set3_r1.rel --context pointed:0 --property left-star-symmetric --machine"),
    ("check-relation__bool2_order__proto", "check-relation --algebra corpus/bool2.alg --relation corpus/bool2_order.rel --context proto --property star-symmetric --machine"),
    ("check-identities__set2__total", "check-identities --algebra corpus/set2.alg --context total --machine"),
    ("check-identities__set2__pointed0", "check-identities --algebra corpus/set2.alg --context pointed:0 --machine"),
    ("check-identities__bool2__proto", "check-identities --algebra corpus/bool2.alg --context proto --machine"),
    ("check-identities__groupZ2__pointede", "check-identities --algebra corpus/groupZ2.alg --context pointed:e --machine"),
    ("check-identities__ringZ4__proto", "check-identities --algebra corpus/ringZ4.alg --context proto --machine"),
    ("audit__monoid01__pointed0__human", "audit --algebra corpus/monoid01.alg --context pointed:0"),
    ("find-terms__bool2__esub__proto__human", "find-terms --algebra corpus/bool2.alg --kind e-subtractive --context proto"),
    ("congruences__ringZ4__human", "congruences --algebra corpus/ringZ4.alg"),
]

# check-identities: (algebra, context, extra flags); the last two are known
# gaps: a truncated family still prints PASS, and ringZ9 hits the fixed
# congruence size cap and exits 3 with nothing on stdout
IDENTITY_RUNS = (
    (lambda: gen.bare_set(3), "total", []),
    (lambda: gen.bare_set(3), "pointed:0", []),
    (lambda: gen.chain_lattice(4), "pointed:bot", []),
    (lambda: gen.monounary("monoA", (0, 0, 1, 2)), "pointed:bot", []),
    (lambda: gen.monounary("monoB", (0, 2, 3, 1)), "pointed:bot", []),
    (lambda: gen.monounary("monoC", (0, 0, 0, 0)), "pointed:bot", ["--max-relations", "48"]),
    (lambda: gen.ring(9), "proto", []),
)

# check-relation: (algebra, context, property, required verdict pattern).
# The pattern (left side holds, opposite side holds) is fixed per slot, so
# the drawn relation changes but the calls the command makes do not.
RELATION_RUNS = (
    (lambda: gen.chain(4), "pointed:bot", "left-star-symmetric", (False, None)),
    (lambda: gen.chain(4), "pointed:bot", "star-symmetric", (True, False)),
    (lambda: gen.monounary("monoA", (0, 0, 1, 2)), "pointed:bot", "left-star-symmetric", (True, None)),
    (lambda: gen.monounary("monoA", (0, 0, 1, 2)), "pointed:bot", "star-symmetric", (True, True)),
    (lambda: gen.boolean(2), "proto", "left-star-symmetric", (True, None)),
    (lambda: gen.boolean(2), "proto", "star-symmetric", (True, False)),
    (lambda: gen.ring(4), "proto", "left-star-symmetric", (False, None)),
    (lambda: gen.ring(4), "proto", "star-symmetric", (False, None)),
)

# (n, audit copies) for Z_n: congruences once, audit on relabeled copies.
# The six ringZ6 audits place the tail (the 11th slowest command) inside a
# group of equal commands.
RING_RUNS = ((5, 1), (6, 6), (9, 1))


def calculus_commands(seed: int, root: Path, workdir: Path) -> list[Command]:
    """Every command of one pass; generated inputs are written to workdir."""
    out = [
        Command(f"golden {name}", argv.split(),
                functools.partial(_check_golden, root / "corpus" / "golden" / f"{name}.txt"))
        for name, argv in GOLDEN_RUNS
    ]
    rng = gen.seeded_rng(seed, "calculus")

    def write(tables: gen.Tables, tag: str) -> str:
        path = workdir / f"{tag}.alg"
        path.write_text(tables.text())
        return str(path)

    for i, (make, ctx, flags) in enumerate(IDENTITY_RUNS):
        base = make()
        tables = gen.relabel(base, gen.permutation(rng, base.size))
        path = write(tables, f"identities{i}")
        out.append(Command(
            f"check-identities {tables.name} {ctx} {' '.join(flags)}".rstrip(),
            ["check-identities", "--algebra", path, "--context", ctx, *flags, "--machine"],
            functools.partial(_check_identities, tables, ctx),
        ))

    for i, (make, ctx, prop, pattern) in enumerate(RELATION_RUNS):
        base = make()
        tables = gen.relabel(base, gen.permutation(rng, base.size))
        mask = _draw_relation(rng, tables, ctx, pattern)
        path = write(tables, f"relation{i}")
        rel_path = workdir / f"relation{i}.rel"
        rel_lines = [f"relation r{i}", f"algebra {tables.name}"]
        rel_lines += [f"pair {a} {b}" for a, b in oracle.pairs(mask, tables.size)]
        rel_path.write_text("\n".join(rel_lines) + "\n")
        expected = oracle.check_relation_report(tables, ctx, mask, prop, f"r{i}")
        out.append(Command(
            f"check-relation {tables.name} {ctx} {prop}",
            ["check-relation", "--algebra", path, "--relation", str(rel_path),
             "--context", ctx, "--property", prop, "--machine"],
            functools.partial(_check_exact, expected),
        ))

    for n, copies in RING_RUNS:
        d = len(oracle.divisors(n))
        for copy in range(copies):
            perm = gen.permutation(rng, n)
            tables = gen.relabel(gen.ring(n), perm)
            path = write(tables, f"ring{n}-{copy}")
            if copy == 0:
                out.append(Command(
                    f"congruences ringZ{n}",
                    ["congruences", "--algebra", path, "--machine"],
                    functools.partial(_check_congruences, n, perm),
                ))
            report = [f"RUN command=audit algebra={tables.name} context=proto"] + [
                f"CHECK {key} PASS examined={examined}"
                for key, _, examined, _ in oracle.maltsev_audit_expectation(d)
            ]
            out.append(Command(
                f"audit ringZ{n} proto #{copy}",
                ["audit", "--algebra", path, "--context", "proto", "--machine"],
                functools.partial(_check_exact, ("\n".join(report) + "\n", 0)),
            ))
    return out


def _draw_relation(rng, tables: gen.Tables, ctx: str, pattern) -> int:
    """A uniformly random relation whose left and opposite star-symmetry
    match the pattern (None: either)."""
    n = tables.size
    nulls = oracle.null_class(tables, ctx)
    while True:
        mask = rng.getrandbits(n * n)
        left = oracle.left_witness(mask, n, nulls) is None
        right = oracle.left_witness(oracle.opposite(mask, n), n, nulls) is None
        if left == pattern[0] and pattern[1] in (None, right):
            return mask


def undecided(stdout: str, code: int) -> bool:
    """A budget verdict, exit 3, or a report built on a truncated family."""
    return code == 3 or "INCONCLUSIVE" in stdout or "note=truncated" in stdout


def _check_golden(path: Path, stdout: str, code: int) -> Outcome:
    golden = path.read_text()
    header, body = golden.split("\n", 1)
    want_code = int(header.split()[2])
    ok = stdout == body and code == want_code
    return not undecided(stdout, code), ok, f"exit {code} (golden {want_code})"


def _check_exact(expected: tuple[str, int], stdout: str, code: int) -> Outcome:
    text, want_code = expected
    if undecided(stdout, code):
        return False, code == 3 and not stdout, f"exit {code}"
    return True, (stdout, code) == (text, want_code), f"exit {code}"


def _check_identities(tables: gen.Tables, ctx: str, stdout: str, code: int) -> Outcome:
    lines = stdout.splitlines()
    checks = [line for line in lines if line.startswith("CHECK ")]
    if undecided(stdout, code):
        # the laws are theorems: whatever was checked must have passed
        ok = (code == 3 and not stdout) or all(" PASS " in line for line in checks)
        return False, ok, f"exit {code}"
    header = f"RUN command=check-identities algebra={tables.name} context={ctx}"
    if tables.size <= 4:
        want = [header] + oracle.identity_report(tables, ctx)
    else:
        want = [header] + [line for line in checks if " PASS " in line]
    return True, lines == want and code == 0, f"exit {code}"


def _check_congruences(n: int, perm, stdout: str, code: int) -> Outcome:
    if undecided(stdout, code):
        return False, code == 3 and not stdout, f"exit {code}"
    lines = stdout.splitlines()
    partitions = {
        line.split("partition=", 1)[1] for line in lines if line.startswith("CONGRUENCE ")
    }
    want = oracle.ring_partitions(n, perm)
    count = f"COUNT congruences={len(want)}"
    ok = code == 0 and partitions == want and lines[-1] == count and len(lines) == len(want) + 2
    return True, ok, f"exit {code}, {len(partitions)} congruences, want {len(want)}"
