"""Command-line surface: file formats, report emission, exit codes.

Each subcommand declares only the flags it reads and names its command
function with ``set_defaults(run=...)``; a command reads the argparse
namespace directly.  Exit status is a pure function of the report: 1 if
any check failed, 3 if any check was inconclusive (budget), 0 otherwise.
2 is bad input: a `ParseError` or `ContextError`, a `UsageError` (an
unknown context, a non-positive budget, a file that is not UTF-8, a
search the algebra cannot serve) or an unreadable file.  4 is an internal
fault: any other exception, including a `ValueError` raised inside a
kernel or a witness failing its own identities; no verdict produces it.
Machine-mode reports are line oriented and byte-stable across runs.
check-identities finds its endomorphisms with `algebra.HomomorphismSearch`
under `_ENDO_NODE_BUDGET` nodes, with no cap on the carrier size.  It
admits each member of its relation family once, through `star`, and then
runs the laws on the admitted family's masks with the stacked kernels of
`relations`.  A family cut short by the relation budget makes the
command INCONCLUSIVE.

One table, `_COMMANDS`, holds each subcommand's name, function, help and
flags.  When ``argv[0]`` names a subcommand, `main` builds only that
command's parser, ``starcheck <name>``: the top-level parser and the
other four cost more than most commands' algebra.  Any other argv (none,
``-h``, an unknown command, an option first) gets the full parser.
Output and exit codes are the full parser's byte for byte: a subparser's
help and errors never read its siblings, and the one top-level message,
the usage error of ``unrecognized arguments``, comes from the full
parser, built only then.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys
from dataclasses import dataclass
from typing import IO, Iterable

from .algebra import (
    Congruence,
    FiniteAlgebra,
    Homomorphism,
    HomomorphismSearch,
    _content_lines,
    _line_error,
    _read_line,
    all_congruences,
    parse_algebra,
)
from .checkers import (
    DEFAULT_RELATION_BUDGET,
    PermutabilityWitness,
    Verdict,
    audit_algebra,
    enumerate_reflexive_compatible,
    is_left_star_symmetric,
    is_star_symmetric,
)
from .contexts import IdealContext, Pointed, Total, null_class, parse_context, validate_context
from .errors import BudgetError, ContextError, ParseError, UsageError
from .relations import (
    Relation,
    _compose_star_sides,
    _inverse_image_star_sides,
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
    lines = list(_content_lines(text))
    if len(lines) < 2:
        raise ParseError(filename, 1, 1, "expected relation and algebra headers")
    (name,) = _read_line(filename, *lines[0], "relation <name>")
    lineno, line = lines[1]
    (over,) = _read_line(filename, lineno, line, "algebra <name>")
    if over != algebra.name:
        raise _line_error(
            filename, lineno, line, 1,
            f"relation is over algebra {over!r}, not {algebra.name!r}",
        )

    pairs: set[tuple[int, int]] = set()
    duplicates: list[tuple[int, int]] = []
    n = algebra.size
    for lineno, line in lines[2:]:
        a, b = _read_line(filename, lineno, line, "pair <int> <int>")
        if a >= n or b >= n:
            raise _line_error(
                filename, lineno, line, 1 if a >= n else 2,
                f"pair ({a},{b}) out of range for size {n}",
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
    """Collects verdict-bearing lines after the run header; the exit code
    is derived from them."""

    def __init__(self, args: argparse.Namespace, out: IO[str], **header: str):
        self.machine = args.machine
        self.out = out
        self.verdicts: list[Verdict] = []
        fields = [f"{k}={v}" for k, v in header.items()]
        if self.machine:
            self.lines = [" ".join([f"RUN command={args.command}", *fields])]
        else:
            self.lines = [f"{args.command}: {' '.join(fields)}"]

    def raw(self, line: str):
        self.lines.append(line)

    def say(self, machine: str, human: str):
        """Add the line of the current output mode."""
        self.lines.append(machine if self.machine else human)

    def check(self, verdict: Verdict):
        self.verdicts.append(verdict)

    def emit(self) -> int:
        self.out.write("\n".join(self.lines) + "\n")
        if Verdict.FAIL in self.verdicts:
            return EXIT_FAIL
        if Verdict.INCONCLUSIVE in self.verdicts:
            return EXIT_INCONCLUSIVE
        return EXIT_PASS


# --- commands -------------------------------------------------------------


def _read_text(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError:
        raise UsageError(f"{path} is not a UTF-8 text file") from None


def _load_algebra(args: argparse.Namespace) -> FiniteAlgebra:
    return parse_algebra(_read_text(args.algebra), filename=os.path.basename(args.algebra))


def _context_for(args: argparse.Namespace, a: FiniteAlgebra) -> IdealContext:
    ctx = parse_context(args.context)
    validate_context(ctx, a)
    return ctx


def _cmd_audit(args: argparse.Namespace, out: IO[str]) -> int:
    a = _load_algebra(args)
    ctx = _context_for(args, a)
    report = _Report(args, out, algebra=a.name, context=str(ctx))
    audit = audit_algebra(ctx, a, max_relations=args.max_relations)
    for cond in audit.conditions:
        report.check(cond.verdict)
        if report.machine:
            parts = [f"CHECK {cond.key} {cond.verdict.value}", f"examined={cond.examined}"]
            if cond.witnesses:
                parts.append(f"failures={len(cond.witnesses)}")
                w = cond.witnesses[0]
                parts.append(f"witness={_fmt_pair(w.pair)}")
                if isinstance(w, PermutabilityWitness):
                    parts.append(f"first={_fmt_partition(w.first)}")
                    parts.append(f"second={_fmt_partition(w.second)}")
                else:
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
                else:
                    side = " (via the opposite relation)" if w.from_opposite else ""
                    report.raw(
                        f"    counterexample: relation {pair_set_text(w.relation)} "
                        f"pair {_fmt_pair(w.pair)}{side}"
                    )
    return report.emit()


def _cmd_congruences(args: argparse.Namespace, out: IO[str]) -> int:
    a = _load_algebra(args)
    report = _Report(args, out, algebra=a.name)
    congruences = all_congruences(a)
    for i, c in enumerate(congruences):
        report.say(f"CONGRUENCE {i} partition={_fmt_partition(c)}", f"  {_fmt_partition(c)}")
    report.say(f"COUNT congruences={len(congruences)}", f"  total: {len(congruences)}")
    return report.emit()


def _cmd_check_relation(args: argparse.Namespace, out: IO[str]) -> int:
    a = _load_algebra(args)
    ctx = _context_for(args, a)
    text = _read_text(args.relation)
    parsed = parse_relation(text, a, filename=os.path.basename(args.relation))
    report = _Report(
        args, out,
        algebra=a.name, relation=parsed.name,
        context=str(ctx), property=args.property,
    )
    for dup in parsed.duplicates:
        report.raw(f"WARN duplicate-pair={_fmt_pair(dup)}")
    r = parsed.relation
    compat = "true" if r.compatible else "false"
    report.say(
        f"INFO relation={pair_set_text(r)} compatible={compat}",
        f"  relation {pair_set_text(r)} compatible={compat}",
    )

    if args.property == "left-star-symmetric":
        verdict = is_left_star_symmetric(ctx, r)
    else:
        verdict = is_star_symmetric(ctx, r)
    value = Verdict.PASS if verdict.holds else Verdict.FAIL
    report.check(value)
    machine = f"CHECK {args.property} {value.value}"
    human = f"  {args.property}: {value.value}"
    if verdict.witness is not None:
        pair = _fmt_pair(verdict.witness)
        machine += f" witness={pair}" + (" side=opposite" if verdict.from_opposite else "")
        side = " in the opposite relation" if verdict.from_opposite else ""
        human += f" (witness {pair}{side})"
    report.say(machine, human)
    return report.emit()


def _cmd_find_terms(args: argparse.Namespace, out: IO[str]) -> int:
    a = _load_algebra(args)
    ctx = _context_for(args, a)
    if args.kind == "maltsev":
        report = _Report(args, out, algebra=a.name, kind=args.kind)
        result = find_maltsev_term(a, budget=args.clone_budget)
        clone = "ternary"
        rows = [("maltsev-term", "maltsev term", result.term)]
    else:
        if isinstance(ctx, Total):
            raise UsageError("subtractive term search needs a pointed or proto context")
        targets = tuple(sorted(null_class(ctx, a).elements))
        if not targets:
            raise UsageError("the signature has no constants")
        report = _Report(args, out, algebra=a.name, context=str(ctx), kind=args.kind)
        result = find_e_subtractive_terms(a, elements=targets, budget=args.clone_budget)
        clone = "binary"
        found = dict(result.terms)
        rows = [(f"subtractive-term[e={e}]", f"term for {e}", found.get(e)) for e in targets]

    size = result.clone_size
    complete = "true" if result.complete else "false"
    report.say(
        f"INFO clone-size={size} complete={complete}",
        f"  {clone} clone: {size} operations, complete={complete}",
    )
    for key, label, op in rows:
        if op is not None:
            report.check(Verdict.PASS)
            report.say(
                f'CHECK {key} PASS term="{op.text}" table={_fmt_table(op.table)}',
                f"  {label}: {op.text}",
            )
        elif result.status is SearchStatus.ABSENT:
            report.check(Verdict.FAIL)
            report.say(
                f"CHECK {key} FAIL reason=clone-exhausted clone-size={size}",
                f"  no {label}: the complete {clone} clone of size {size} was exhausted",
            )
        else:
            report.check(Verdict.INCONCLUSIVE)
            report.say(
                f"CHECK {key} INCONCLUSIVE reason=clone-budget",
                f"  {label}: inconclusive, clone budget exhausted",
            )
    if not report.machine and Verdict.INCONCLUSIVE not in report.verdicts:
        report.raw(f"  verdict certifies the variety generated by {a.name}")
    return report.emit()


def _identity_family(a: FiniteAlgebra, ctx: IdealContext, budget: int):
    """Relations the law suite quantifies over, and how many relations the
    enumeration kept when the relation budget cut it short (else None).

    A bare set of at most 3 elements quantifies over all 2^(n^2) relations
    on it (512 on three elements) and never reads the relation budget, so
    its family is never truncated.  Any other algebra quantifies over its
    reflexive compatible relations (every congruence among them) with
    their opposites and stars; only a truncated enumeration adds the
    congruence lattice as well, if the lattice is within its size budget."""
    if a.signature.is_empty and a.size <= 3:
        masks = range(1 << (a.size * a.size))
        return [Relation(a, a, m) for m in masks], None
    enum = enumerate_reflexive_compatible(a, budget=budget)
    family = set(enum.relations)
    if enum.truncated:  # a complete enumeration holds every congruence
        with contextlib.suppress(BudgetError):  # truncated either way
            family.update(congruence_relation(c) for c in all_congruences(a))
    for r in list(family):
        family.add(opposite(r))
        family.add(star(ctx, r))
    ordered = sorted(family, key=lambda r: r.mask)
    return ordered, len(enum.relations) if enum.truncated else None


def _cmd_check_identities(args: argparse.Namespace, out: IO[str]) -> int:
    a = _load_algebra(args)
    ctx = _context_for(args, a)
    report = _Report(args, out, algebra=a.name, context=str(ctx))
    family, kept = _identity_family(a, ctx, args.max_relations)
    if kept is not None:
        # the laws below passed on every case they checked, but the family
        # misses relations, so the command as a whole is undecided
        report.check(Verdict.INCONCLUSIVE)
        budget = f"{kept}/{args.max_relations}"
        report.say(
            f"WARN relation-budget={budget} family=truncated",
            f"  warning: relation budget spent ({budget}), the family is truncated",
        )

    def law(key: str, cases: int, holds: bool, inconclusive: bool = False):
        verdict = Verdict.INCONCLUSIVE if inconclusive else Verdict.PASS if holds else Verdict.FAIL
        report.check(verdict)
        note = " note=truncated" if kept is not None else ""
        report.say(
            f"CHECK {key} {verdict.value} cases={cases}{note}",
            f"  {key.replace('-', ' ')}: {verdict.value} ({cases} cases)",
        )

    n = len(family)
    # star admits each member once: square, compatible, valid for ctx; the
    # laws after it run on the admitted masks
    stars = [star(ctx, r) for r in family]
    pairs = list(zip(family, stars))
    masks = [r.mask for r in family]
    law("law-compose-star", n * n, all(
        lhs == rhs for lhs, rhs in _compose_star_sides(ctx, a, masks)
    ))
    law("law-star-pullback", n, all(st == star_via_pullback(ctx, r) for r, st in pairs))
    law("law-star-idempotent-deflationary", n, all(
        star(ctx, st) == st and not st.mask & ~r.mask for r, st in pairs
    ))

    candidates = {x: a.carrier for x in a.carrier}
    if isinstance(ctx, Pointed):
        (base,) = null_class(ctx, a).elements
        candidates[base] = (base,)
    try:
        search = HomomorphismSearch(a, a, candidates, _ENDO_NODE_BUDGET)
        endos, spent = [Homomorphism(a, a, m) for m in search], False
    except BudgetError:  # both laws are then INCONCLUSIVE with no cases
        endos, spent = [], True
    law("law-inverse-image-star", len(endos) * n, all(
        lhs == rhs for lhs, rhs in _inverse_image_star_sides(ctx, a, endos, masks)
    ), inconclusive=spent)
    law("law-kernel-pair-inverse-image", len(endos), all(
        kernel_pair(f) == inverse_image(f, diagonal(a)) for f in endos
    ), inconclusive=spent)
    return report.emit()


# --- argument parsing -------------------------------------------------------


_FLAGS = {
    "--relation": dict(required=True, help="relation file"),
    "--context": dict(default="total", help="total | pointed:<element-or-constant> | proto"),
    "--property": dict(required=True, choices=["left-star-symmetric", "star-symmetric"]),
    "--kind": dict(required=True, choices=["maltsev", "e-subtractive"]),
    "--max-relations": dict(type=int, default=DEFAULT_RELATION_BUDGET),
    "--clone-budget": dict(type=int, default=DEFAULT_CLONE_BUDGET),
}


# name -> (command function, help, flags besides --algebra and --machine)
_COMMANDS = {
    "audit": (_cmd_audit, "run the four condition suites", ("--context", "--max-relations")),
    "check-relation": (_cmd_check_relation, "check one relation",
                       ("--relation", "--context", "--property")),
    "check-identities": (_cmd_check_identities, "relation-calculus law suite",
                         ("--context", "--max-relations")),
    "find-terms": (_cmd_find_terms, "characterizing term search",
                   ("--context", "--kind", "--clone-budget")),
    "congruences": (_cmd_congruences, "list all congruences", ()),
}


class _CommandParser(argparse.ArgumentParser):
    """One command's parser, reading argv as the full parser does."""

    def parse_args(self, args, namespace=None):
        args, extras = self.parse_known_args(args[1:], namespace)
        if extras:
            build_parser().error(f"unrecognized arguments: {' '.join(extras)}")
        return args


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The starcheck parser with every subcommand, or only ``command``'s."""
    if command is None:
        parser = argparse.ArgumentParser(
            prog="starcheck",
            description="Star-relation calculus and symmetry audits over finite algebras.",
        )
        sub = parser.add_subparsers(dest="command", required=True)
        parsers = {name: sub.add_parser(name, help=_COMMANDS[name][1]) for name in _COMMANDS}
    else:
        parser = _CommandParser(prog=f"starcheck {command}")
        parsers = {command: parser}
    for name, p in parsers.items():
        run, _, flags = _COMMANDS[name]
        p.set_defaults(run=run, command=name)
        p.add_argument("--algebra", required=True, help="algebra description file")
        for flag in flags:
            p.add_argument(flag, **_FLAGS[flag])
        p.add_argument("--machine", action="store_true", help="line-oriented output")
    return parser


def main(argv: list[str] | None = None, out: IO[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser(argv[0] if argv and argv[0] in _COMMANDS else None)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        if min(getattr(args, "max_relations", 1), getattr(args, "clone_budget", 1)) < 1:
            raise UsageError("budgets must be positive")
        return args.run(args, out if out is not None else sys.stdout)
    except BudgetError as exc:
        print(f"starcheck: budget: {exc}", file=sys.stderr)
        return EXIT_INCONCLUSIVE
    except (ParseError, ContextError, UsageError, OSError) as exc:
        print(f"starcheck: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:  # a fault in starcheck, not in the input
        print(f"starcheck: internal error: {exc!r}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
