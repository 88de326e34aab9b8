"""Command-line surface: file formats, report emission, exit codes.

Exit status is a pure function of the report: 1 if any check failed,
3 if any check was inconclusive (budget), 2 for usage and parse errors,
0 otherwise; 4 is reserved for internal faults (any other exception, such
as a witness failing its own identities), which no verdict can produce.
Machine-mode reports are line oriented and byte-stable across runs.
check-identities finds its endomorphisms with `algebra.HomomorphismSearch`
under `_ENDO_NODE_BUDGET` nodes, with no cap on the carrier size.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass, field
from typing import IO, Iterable

from .algebra import (
    Congruence,
    FiniteAlgebra,
    Homomorphism,
    HomomorphismSearch,
    all_congruences,
    parse_algebra,
)
from .checkers import (
    DEFAULT_RELATION_BUDGET,
    PermutabilityWitness,
    SymmetryWitness,
    Verdict,
    audit_algebra,
    enumerate_reflexive_compatible,
    is_left_star_symmetric,
    is_star_symmetric,
)
from .contexts import IdealContext, Pointed, Total, parse_context, resolve_base, validate_context
from .errors import BudgetError, ContextError, ParseError
from .relations import (
    Relation,
    compose,
    congruence_relation,
    diagonal,
    inverse_image,
    kernel_pair,
    opposite,
    pair_set_text,
    star,
    star_via_pullback,
)
from .terms import (
    DEFAULT_CLONE_BUDGET,
    SearchStatus,
    find_e_subtractive_terms,
    find_maltsev_term,
)

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_INCONCLUSIVE = 3
EXIT_INTERNAL = 4

# the most nodes an endomorphism search on at most 5 elements can take
_ENDO_NODE_BUDGET = sum(5**k for k in range(1, 6))


@dataclass
class RunConfiguration:
    command: str
    algebra_path: str
    relation_path: str | None = None
    context_spec: str = "total"
    prop: str | None = None
    kind: str | None = None
    max_relations: int = DEFAULT_RELATION_BUDGET
    clone_budget: int = DEFAULT_CLONE_BUDGET
    machine: bool = False
    out: IO[str] = field(default_factory=lambda: sys.stdout)

    def __post_init__(self):
        if self.max_relations < 1 or self.clone_budget < 1:
            raise ValueError("budgets must be positive")


# --- relation document format -------------------------------------------------


@dataclass(frozen=True)
class ParsedRelation:
    relation: Relation
    name: str
    duplicates: tuple[tuple[int, int], ...]


def parse_relation(
    text: str, algebra: FiniteAlgebra, filename: str = "<relation>"
) -> ParsedRelation:
    """Parse a relation document: ``relation <name>``, ``algebra <name>``,
    then one ``pair a b`` line per element."""
    lines = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.split("#", 1)[0].rstrip()
        if stripped.strip():
            lines.append((lineno, stripped))
    if len(lines) < 2:
        raise ParseError(filename, 1, 1, "expected relation and algebra headers")

    lineno, line = lines[0]
    parts = line.split()
    if len(parts) != 2 or parts[0] != "relation":
        raise ParseError(filename, lineno, 1, "expected 'relation <name>'")
    name = parts[1]

    lineno, line = lines[1]
    parts = line.split()
    if len(parts) != 2 or parts[0] != "algebra":
        raise ParseError(filename, lineno, 1, "expected 'algebra <name>'")
    if parts[1] != algebra.name:
        raise ParseError(
            filename, lineno, 1,
            f"relation is over algebra {parts[1]!r}, not {algebra.name!r}",
        )

    pairs: set[tuple[int, int]] = set()
    duplicates: list[tuple[int, int]] = []
    n = algebra.size
    for lineno, line in lines[2:]:
        parts = line.split()
        if len(parts) != 3 or parts[0] != "pair":
            raise ParseError(filename, lineno, 1, "expected 'pair <a> <b>'")
        try:
            a, b = int(parts[1]), int(parts[2])
        except ValueError:
            raise ParseError(filename, lineno, 1, "pair elements must be integers")
        if not (0 <= a < n and 0 <= b < n):
            raise ParseError(
                filename, lineno, 1, f"pair ({a},{b}) out of range for size {n}"
            )
        if (a, b) in pairs:
            duplicates.append((a, b))
        pairs.add((a, b))
    relation = Relation.from_pairs(algebra, algebra, pairs)
    return ParsedRelation(relation, name, tuple(duplicates))


def serialize_relation(relation: Relation, name: str, algebra_name: str) -> str:
    out = [f"relation {name}", f"algebra {algebra_name}"]
    for a, b in relation.pairs():
        out.append(f"pair {a} {b}")
    return "\n".join(out) + "\n"


# --- rendering helpers --------------------------------------------------------


def _fmt_pair(pair: tuple[int, int]) -> str:
    return f"({pair[0]},{pair[1]})"


def _fmt_partition(c: Congruence) -> str:
    return ",".join("{" + ",".join(str(x) for x in b) + "}" for b in c.blocks())


def _fmt_table(table: Iterable[int]) -> str:
    return "[" + ",".join(str(v) for v in table) + "]"


class _Report:
    """Collects verdict-bearing lines; the exit code is derived from them."""

    def __init__(self, cfg: RunConfiguration):
        self.cfg = cfg
        self.lines: list[str] = []
        self.verdicts: list[Verdict] = []

    def raw(self, line: str):
        self.lines.append(line)

    def check(self, verdict: Verdict):
        self.verdicts.append(verdict)

    @property
    def exit_code(self) -> int:
        if any(v is Verdict.FAIL for v in self.verdicts):
            return EXIT_FAIL
        if any(v is Verdict.INCONCLUSIVE for v in self.verdicts):
            return EXIT_INCONCLUSIVE
        return EXIT_PASS

    def emit(self) -> int:
        self.cfg.out.write("\n".join(self.lines) + "\n")
        return self.exit_code


def _run_header(report: _Report, cfg: RunConfiguration, **extra: str):
    if cfg.machine:
        parts = [f"RUN command={cfg.command}"]
        parts += [f"{k}={v}" for k, v in extra.items()]
        report.raw(" ".join(parts))
    else:
        detail = " ".join(f"{k}={v}" for k, v in extra.items())
        report.raw(f"{cfg.command}: {detail}")


# --- commands -------------------------------------------------------------


def _load_algebra(cfg: RunConfiguration) -> FiniteAlgebra:
    with open(cfg.algebra_path, encoding="utf-8") as fh:
        text = fh.read()
    return parse_algebra(text, filename=os.path.basename(cfg.algebra_path))


def _context_for(cfg: RunConfiguration, a: FiniteAlgebra) -> IdealContext:
    ctx = parse_context(cfg.context_spec)
    validate_context(ctx, a)
    return ctx


def _cmd_audit(cfg: RunConfiguration) -> int:
    a = _load_algebra(cfg)
    ctx = _context_for(cfg, a)
    report = _Report(cfg)
    _run_header(report, cfg, algebra=a.name, context=str(ctx))
    audit = audit_algebra(ctx, a, max_relations=cfg.max_relations)
    for cond in audit.conditions:
        report.check(cond.verdict)
        if cfg.machine:
            parts = [f"CHECK {cond.key} {cond.verdict.value}", f"examined={cond.examined}"]
            if cond.witnesses:
                parts.append(f"failures={len(cond.witnesses)}")
                w = cond.witnesses[0]
                if isinstance(w, PermutabilityWitness):
                    parts.append(f"witness={_fmt_pair(w.pair)}")
                    parts.append(f"first={_fmt_partition(w.first)}")
                    parts.append(f"second={_fmt_partition(w.second)}")
                elif isinstance(w, SymmetryWitness):
                    parts.append(f"witness={_fmt_pair(w.pair)}")
                    parts.append(f"relation={pair_set_text(w.relation)}")
                    if w.from_opposite:
                        parts.append("side=opposite")
            if cond.verdict is Verdict.INCONCLUSIVE:
                parts.append("note=truncated")
            report.raw(" ".join(parts))
        else:
            label = cond.key.replace("-", " ")
            suffix = f"({cond.examined} examined)"
            report.raw(f"  {label}: {cond.verdict.value} {suffix}")
            if cond.note:
                report.raw(f"    note: {cond.note}")
            for w in cond.witnesses:
                if isinstance(w, PermutabilityWitness):
                    report.raw(
                        f"    counterexample: congruences {_fmt_partition(w.first)} "
                        f"and {_fmt_partition(w.second)}, pair {_fmt_pair(w.pair)}"
                    )
                elif isinstance(w, SymmetryWitness):
                    side = " (via the opposite relation)" if w.from_opposite else ""
                    report.raw(
                        f"    counterexample: relation {pair_set_text(w.relation)} "
                        f"pair {_fmt_pair(w.pair)}{side}"
                    )
    return report.emit()


def _cmd_congruences(cfg: RunConfiguration) -> int:
    a = _load_algebra(cfg)
    report = _Report(cfg)
    _run_header(report, cfg, algebra=a.name)
    congruences = all_congruences(a)
    for i, c in enumerate(congruences):
        if cfg.machine:
            report.raw(f"CONGRUENCE {i} partition={_fmt_partition(c)}")
        else:
            report.raw(f"  {_fmt_partition(c)}")
    if cfg.machine:
        report.raw(f"COUNT congruences={len(congruences)}")
    else:
        report.raw(f"  total: {len(congruences)}")
    return report.emit()


def _cmd_check_relation(cfg: RunConfiguration) -> int:
    a = _load_algebra(cfg)
    ctx = _context_for(cfg, a)
    with open(cfg.relation_path, encoding="utf-8") as fh:
        text = fh.read()
    parsed = parse_relation(text, a, filename=os.path.basename(cfg.relation_path))
    report = _Report(cfg)
    _run_header(
        report, cfg,
        algebra=a.name, relation=parsed.name,
        context=str(ctx), property=cfg.prop,
    )
    for dup in parsed.duplicates:
        report.raw(f"WARN duplicate-pair={_fmt_pair(dup)}")
    r = parsed.relation
    compat = "true" if r.compatible else "false"
    if cfg.machine:
        report.raw(f"INFO relation={pair_set_text(r)} compatible={compat}")
    else:
        report.raw(f"  relation {pair_set_text(r)} compatible={compat}")

    if cfg.prop == "left-star-symmetric":
        verdict = is_left_star_symmetric(ctx, r)
    else:
        verdict = is_star_symmetric(ctx, r)
    report.check(Verdict.PASS if verdict.holds else Verdict.FAIL)
    value = "PASS" if verdict.holds else "FAIL"
    if cfg.machine:
        parts = [f"CHECK {cfg.prop} {value}"]
        if verdict.witness is not None:
            parts.append(f"witness={_fmt_pair(verdict.witness)}")
            if verdict.from_opposite:
                parts.append("side=opposite")
        report.raw(" ".join(parts))
    else:
        line = f"  {cfg.prop}: {value}"
        if verdict.witness is not None:
            side = " in the opposite relation" if verdict.from_opposite else ""
            line += f" (witness {_fmt_pair(verdict.witness)}{side})"
        report.raw(line)
    return report.emit()


def _cmd_find_terms(cfg: RunConfiguration) -> int:
    a = _load_algebra(cfg)
    report = _Report(cfg)
    if cfg.kind == "maltsev":
        _run_header(report, cfg, algebra=a.name, kind=cfg.kind)
        result = find_maltsev_term(a, budget=cfg.clone_budget)
        complete = "true" if result.complete else "false"
        if cfg.machine:
            report.raw(f"INFO clone-size={result.clone_size} complete={complete}")
        else:
            report.raw(
                f"  ternary clone: {result.clone_size} operations, complete={complete}"
            )
        if result.status is SearchStatus.FOUND:
            report.check(Verdict.PASS)
            if cfg.machine:
                report.raw(
                    f'CHECK maltsev-term PASS term="{result.term.text}" '
                    f"table={_fmt_table(result.term.table)}"
                )
            else:
                report.raw(f"  maltsev term: {result.term.text}")
        elif result.status is SearchStatus.ABSENT:
            report.check(Verdict.FAIL)
            if cfg.machine:
                report.raw(
                    f"CHECK maltsev-term FAIL reason=clone-exhausted "
                    f"clone-size={result.clone_size}"
                )
            else:
                report.raw(
                    f"  no maltsev term: the complete ternary clone of size "
                    f"{result.clone_size} was exhausted"
                )
        else:
            report.check(Verdict.INCONCLUSIVE)
            if cfg.machine:
                report.raw("CHECK maltsev-term INCONCLUSIVE reason=clone-budget")
            else:
                report.raw("  inconclusive: clone budget exhausted before the fixpoint")
        return report.emit()

    ctx = _context_for(cfg, a)
    if isinstance(ctx, Total):
        raise ValueError("subtractive term search needs a pointed or proto context")
    _run_header(report, cfg, algebra=a.name, context=str(ctx), kind=cfg.kind)
    if isinstance(ctx, Pointed):
        targets: tuple[int, ...] | None = (resolve_base(ctx, a),)
    else:
        targets = None
    result = find_e_subtractive_terms(a, elements=targets, budget=cfg.clone_budget)
    complete = "true" if result.complete else "false"
    if cfg.machine:
        report.raw(f"INFO clone-size={result.clone_size} complete={complete}")
    else:
        report.raw(
            f"  binary clone: {result.clone_size} operations, complete={complete}"
        )
    found = dict(result.terms)
    all_targets = sorted(set(found) | set(result.missing))
    for e in all_targets:
        if e in found:
            report.check(Verdict.PASS)
            op = found[e]
            if cfg.machine:
                report.raw(
                    f'CHECK subtractive-term[e={e}] PASS term="{op.text}" '
                    f"table={_fmt_table(op.table)}"
                )
            else:
                report.raw(f"  term for {e}: {op.text}")
        elif result.status is SearchStatus.ABSENT:
            report.check(Verdict.FAIL)
            if cfg.machine:
                report.raw(
                    f"CHECK subtractive-term[e={e}] FAIL reason=clone-exhausted "
                    f"clone-size={result.clone_size}"
                )
            else:
                report.raw(
                    f"  no term for {e}: the complete binary clone of size "
                    f"{result.clone_size} was exhausted"
                )
        else:
            report.check(Verdict.INCONCLUSIVE)
            if cfg.machine:
                report.raw(
                    f"CHECK subtractive-term[e={e}] INCONCLUSIVE reason=clone-budget"
                )
            else:
                report.raw(f"  term for {e}: inconclusive, clone budget exhausted")
    if not cfg.machine:
        scope = "the variety generated by " + a.name
        report.raw(f"  verdict certifies {scope}")
    return report.emit()


def _identity_family(a: FiniteAlgebra, ctx: IdealContext, budget: int):
    """Relations the law suite quantifies over."""
    if a.signature.is_empty and a.size <= 3:
        masks = range(1 << (a.size * a.size))
        return [Relation(a, a, m) for m in masks], False
    enum = enumerate_reflexive_compatible(a, budget=budget)
    family = {r for r in enum.relations}
    for c in all_congruences(a):
        family.add(congruence_relation(c))
    for r in list(family):
        family.add(opposite(r))
        family.add(star(ctx, r))
    ordered = sorted(family, key=lambda r: r.mask)
    return ordered, enum.truncated


def _cmd_check_identities(cfg: RunConfiguration) -> int:
    a = _load_algebra(cfg)
    ctx = _context_for(cfg, a)
    report = _Report(cfg)
    _run_header(report, cfg, algebra=a.name, context=str(ctx))
    family, truncated = _identity_family(a, ctx, cfg.max_relations)

    def law(key: str, cases: int, holds: bool, inconclusive: bool = False):
        if inconclusive:
            verdict = Verdict.INCONCLUSIVE
        else:
            verdict = Verdict.PASS if holds else Verdict.FAIL
        report.check(verdict)
        if cfg.machine:
            line = f"CHECK {key} {verdict.value} cases={cases}"
            if truncated:
                line += " note=truncated"
            report.raw(line)
        else:
            report.raw(f"  {key.replace('-', ' ')}: {verdict.value} ({cases} cases)")

    stars = [star(ctx, r) for r in family]
    ok = True
    cases = 0
    for r in family:
        for s, star_s in zip(family, stars):
            cases += 1
            if star(ctx, compose(s, r)) != compose(star_s, r):
                ok = False
    law("law-compose-star", cases, ok)

    ok = True
    for r, st in zip(family, stars):
        if st != star_via_pullback(ctx, r):
            ok = False
    law("law-star-pullback", len(family), ok)

    ok = True
    for r, st in zip(family, stars):
        if star(ctx, st) != st or (st.mask & ~r.mask):
            ok = False
    law("law-star-idempotent-deflationary", len(family), ok)

    candidates = {x: a.carrier for x in a.carrier}
    if isinstance(ctx, Pointed):
        base = resolve_base(ctx, a)
        candidates[base] = (base,)
    try:
        search = HomomorphismSearch(a, a, candidates, _ENDO_NODE_BUDGET)
        endos, spent = [Homomorphism(a, a, m) for m in search], False
    except BudgetError:  # both laws are then INCONCLUSIVE with no cases
        endos, spent = [], True
    ok = True
    cases = 0
    for f in endos:
        for s in family:
            cases += 1
            lhs = star(ctx, inverse_image(f, s))
            rhs = star(ctx, inverse_image(f, star(ctx, s)))
            if lhs != rhs:
                ok = False
    law("law-inverse-image-star", cases, ok, inconclusive=spent)

    ok = all(kernel_pair(f) == inverse_image(f, diagonal(a)) for f in endos)
    law("law-kernel-pair-inverse-image", len(endos), ok, inconclusive=spent)

    return report.emit()


# --- argument parsing -------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="starcheck",
        description="Star-relation calculus and symmetry audits over finite algebras.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, relation=False, prop=False, kind=False):
        p.add_argument("--algebra", required=True, help="algebra description file")
        if relation:
            p.add_argument("--relation", required=True, help="relation file")
        p.add_argument(
            "--context", default="total",
            help="total | pointed:<element-or-constant> | proto",
        )
        if prop:
            p.add_argument(
                "--property", required=True,
                choices=["left-star-symmetric", "star-symmetric"],
            )
        if kind:
            p.add_argument(
                "--kind", required=True, choices=["maltsev", "e-subtractive"]
            )
        p.add_argument("--max-relations", type=int, default=DEFAULT_RELATION_BUDGET)
        p.add_argument("--clone-budget", type=int, default=DEFAULT_CLONE_BUDGET)
        p.add_argument("--machine", action="store_true", help="line-oriented output")

    common(sub.add_parser("audit", help="run the four condition suites"))
    common(sub.add_parser("check-relation", help="check one relation"), relation=True, prop=True)
    common(sub.add_parser("check-identities", help="relation-calculus law suite"))
    common(sub.add_parser("find-terms", help="characterizing term search"), kind=True)
    common(sub.add_parser("congruences", help="list all congruences"))
    return parser


_DISPATCH = {
    "audit": _cmd_audit,
    "check-relation": _cmd_check_relation,
    "check-identities": _cmd_check_identities,
    "find-terms": _cmd_find_terms,
    "congruences": _cmd_congruences,
}


def run_command(cfg: RunConfiguration) -> int:
    return _DISPATCH[cfg.command](cfg)


def main(argv: list[str] | None = None, out: IO[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        cfg = RunConfiguration(
            command=args.command,
            algebra_path=args.algebra,
            relation_path=getattr(args, "relation", None),
            context_spec=args.context,
            prop=getattr(args, "property", None),
            kind=getattr(args, "kind", None),
            max_relations=args.max_relations,
            clone_budget=args.clone_budget,
            machine=args.machine,
            out=out if out is not None else sys.stdout,
        )
        return run_command(cfg)
    except BudgetError as exc:
        print(f"starcheck: budget: {exc}", file=sys.stderr)
        return EXIT_INCONCLUSIVE
    except (ParseError, ContextError, ValueError, OSError) as exc:
        print(f"starcheck: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:  # a fault in starcheck, not in the input
        print(f"starcheck: internal error: {exc!r}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
