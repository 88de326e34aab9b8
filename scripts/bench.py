"""Microbenchmarks of the parse, clone, congruence, homomorphism and power layers.

Times, each call in full, with `time.perf_counter`:
- `parse_algebra` on every corpus `.alg` document and on the document of
  ringZ4^2 (256-entry tables), `cli.parse_relation` on every corpus
  `.rel` document, and `verify_term_identities` on the e-subtractive
  witness found for ringZ2 at 0 (the readers of the input grammars);
- `find_e_subtractive_terms` on the rings Z4 to Z9 (the last two spend
  the clone budget, Z9 inside a round; the others stop at their last
  witness) and `find_maltsev_term` on groupZ2 (clone layer);
- `all_congruences` on the squares of ringZ4 and bool4, the 8-element
  chain lattice (128 congruences) and the bare 7-element set (877), the
  last two dominated by joins (congruence lattice);
- `substitution_graph` of ringZ2 at 0, which builds both free models,
  their induced algebras and the three legs (free-model layer), and the
  graph route (`substitution_graph`, then `graph_left_star_symmetric`)
  of ringZ3 and ringZ4 at 0, whose free models do not fit the clone
  budget; each of these two runs under a LIMIT_S-second interval timer
  in the child, and its verdict reads `stopped` when the timer ran out
  (`raised <error>` when the call raised);
- the endomorphisms that check-identities quantifies over, on the
  6-element group Z6, and `graph_left_star_symmetric` on the substitution
  graph of ringZ2 at 0 (homomorphism search);
- `direct_power(ringZ4^2, 2)`, the 256-point square whose closure rows
  enumeration once cut, and those rows as enumeration now builds them
  from ringZ4^2's own (`algebra._closure_rows(square=True)`),
  `enumerate_reflexive_compatible` on ringZ4^2 (mostly principal
  closures), on monoid01^2 (306 relations, mostly join closures) and on
  heyt2^2 (commutative and non-commutative operations side by side), and
  `audit_algebra` on ringZ4^2 and ringZ3^2 under proto and on monoid01^2
  under pointed:zero, each with a congruence budget of 16 (power,
  enumeration and the congruence lattice, as perfbench's squares workload
  audits),
  the audit's permutability suites 1-2 alone on ringZ4^2's 9 congruences
  under proto (`relations._star_permute_witnesses`),
  and `audit_algebra` on the 8-element chain lattice under pointed:bot,
  whose 128 congruences give 16,384 ordered pairs;
- the public `star(compose(s, r)) == compose(star(s), r)` loop over the
  512 x 512 relations of set3 under the total context, `compose(star(s),
  r)` over every pair of enumerated relations of monoid01^2 under
  pointed:0 (as each permutability check of audit composes), the public
  `star(inverse_image(f, s)) == star(inverse_image(f, star(s)))` loop over
  the 27 self-maps and 512 relations of set3 under the total context,
  `inverse_image` along every map set3 -> set2 of every relation on set2
  (a map between different carriers), and `is_star_symmetric` and
  `is_left_star_symmetric` on every enumerated relation of monoid01^2
  under pointed:0 (relation compose/star/inverse image and the symmetry
  checkers);
- `check-identities` through `starcheck.cli.main` (the law suite as the
  command runs it) on set3 under the total and the pointed:0 context,
  whose family is all 512 relations of the bare set, and on monoid01^2
  under pointed:0, whose family of 313 members comes from enumeration
  (the square is written to a temporary file with `serialize_algebra`);
  its verdict is the exit code and the sha256 of the report;
- `star_via_pullback` on every member of the family check-identities
  builds (`cli._identity_family`) for the 4-element chain lattice under
  pointed:bot (200 relations) and for ringZ9 under proto, the whole
  `check-identities` command through `starcheck.cli.main` on the same two
  inputs, and the `Homomorphism` construction of the identity of ringZ9
  (law-star-pullback: the square's first projection, validated once per
  context and algebra, and each member's closure in the square);
- `congruences` on ringZ4 through `starcheck.cli.main`, a command whose
  algebra costs less than building its parser (the CLI's fixed cost per
  command); its verdict is the exit code and the sha256 of the report;
- every command of `tests/cli_matrix.GOLDEN_RUNS` through
  `starcheck.cli.main` from the repository root, with the caches cleared
  before each command (end to end); its verdict is the exit codes and the
  sha256 of the reports.
Every starcheck cache is cleared before each call, so each one starts as
cold as in a fresh process.  As in `perfbench/run.py`, one repeat calls
a case again until REPEAT_UNTIL_S seconds are spent, and at least
MIN_CALLS times, and keeps its fastest call: on a shared machine
interference only ever adds time, single calls cannot resolve
sub-millisecond cases, and a slow case timed by one call moves with the
machine.  A case's figures are the median and the fastest of its
REPEATS repeats.  On a shared 2-vCPU machine, 5 repeats of 0.05 s left
cases of 30-50 ms up to 40 % apart between two labels running the same
code, so a repeat lasts 0.2 s and there are 9 of them.  Such a machine
also changes speed for several repeats at a time (a 23 ms case read
35 ms for four repeats of both labels), which can move one label's
median and not the other's; the fastest repeat, which the labels share
in time, is then the figure to compare.  One invocation times every
label given, each label importing starcheck from its own `src` directory
in its own child interpreter, and the label that runs first changes on
every repeat, so drift of the machine spreads over all labels instead of
showing as a difference between them.  Results are merged into a JSON
file under each label:

    python scripts/bench.py --out BENCH.json --label parent=<other checkout>/src --label change

A label without `=src` imports this checkout's `src/`.  Every label's
starcheck must have `HomomorphismSearch`, `algebra._closure_rows(...,
square=True)` and `relations._star_permute_witnesses`; an older one
fails on the cases that call them.  Each case's verdict is stored with
its times, so the labels can be checked to have done the same work.
"""

import argparse
import functools
import hashlib
import io
import itertools
import json
import os
import pathlib
import platform
import signal
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
REPEATS = 9
REPEAT_UNTIL_S = 0.2
MIN_CALLS = 3
LIMIT_S = 5.0


class Stopped(Exception):
    """Raised by the interval timer of a limited case."""


def limited(call):
    """``call`` under a LIMIT_S-second interval timer; its verdict is
    `stopped` when the timer runs out first and `raised <error>` when the
    call raises."""

    def stop(signum, frame):
        raise Stopped

    def run():
        previous = signal.signal(signal.SIGALRM, stop)
        signal.setitimer(signal.ITIMER_REAL, LIMIT_S)
        try:
            return call()
        except Stopped:
            return "stopped"
        except Exception as exc:
            return f"raised {type(exc).__name__}"
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    return run


def group_text(n: int) -> str:
    """The additive group Z_n: zero, add and neg as in `ring_text`."""
    add = " ".join(str((a + b) % n) for a in range(n) for b in range(n))
    neg = " ".join(str(-a % n) for a in range(n))
    return (
        f"algebra groupZ{n}\nsize {n}\nconst zero = 0\n"
        f"op add/2 = [{add}]\nop neg/1 = [{neg}]\n"
    )


def ring_text(n: int) -> str:
    """The ring Z_n in the corpus file format (same symbols and order as
    corpus/ringZ4.alg)."""
    add = [(a + b) % n for a in range(n) for b in range(n)]
    mul = [(a * b) % n for a in range(n) for b in range(n)]
    neg = [(-a) % n for a in range(n)]

    def row(values):
        return " ".join(map(str, values))

    return (
        f"algebra ringZ{n}\nsize {n}\nconst zero = 0\nconst one = {1 % n}\n"
        f"op add/2 = [{row(add)}]\nop mul/2 = [{row(mul)}]\n"
        f"op neg/1 = [{row(neg)}]\n"
    )


def lattice_text(n: int) -> str:
    """The n-element chain as a lattice with its bottom as the constant
    bot (as perfbench's chain_lattice)."""
    meet = " ".join(str(min(a, b)) for a in range(n) for b in range(n))
    join = " ".join(str(max(a, b)) for a in range(n) for b in range(n))
    return (
        f"algebra lattice{n}\nsize {n}\nconst bot = 0\n"
        f"op meet/2 = [{meet}]\nop join/2 = [{join}]\n"
    )


def cases(sc, tmp: pathlib.Path):
    """(name, zero-argument call returning a short verdict string); input
    files that are not in the corpus are written under tmp."""
    from starcheck.cli import parse_relation

    def parse(text, name):
        a = sc.parse_algebra(text, name)
        return f"size={a.size} cells={sum(map(len, a.tables))}"

    def parse_rel(text, over, name):
        parsed = parse_relation(text, over, name)
        return f"pairs={len(parsed.relation)} duplicates={len(parsed.duplicates)}"

    out = []

    corpus = ROOT / "corpus"
    algebras = {}
    for path in sorted(corpus.glob("*.alg")):
        text = path.read_text()
        algebras[path.stem] = sc.parse_algebra(text, path.name)
        out.append((f"parse {path.name}", functools.partial(parse, text, path.name)))
    ring4_square = sc.serialize_algebra(sc.direct_power(algebras["ringZ4"], 2))
    out.append(("parse ringZ4^2", functools.partial(parse, ring4_square, "ringZ4^2.alg")))
    for path in sorted(corpus.glob("*.rel")):
        text = path.read_text()
        over = algebras[text.splitlines()[1].split()[1]]
        out.append((f"parse {path.name}", functools.partial(parse_rel, text, over, path.name)))
    witness = sc.find_e_subtractive_terms(algebras["ringZ2"]).term_for(0)

    def verify():
        verdict = sc.verify_term_identities(witness, ["s(x, x) = 0", "s(x, 0) = x"])
        return f"holds={verdict.holds}"

    out.append(("verify e-subtractive ringZ2 e=0", verify))
    for n in (4, 5, 6, 7, 8, 9):
        a = sc.parse_algebra(ring_text(n))

        def subtractive(a=a):
            r = sc.find_e_subtractive_terms(a)
            return f"{r.status.value} clone={r.clone_size}"

        out.append((f"e-subtractive ringZ{n}", subtractive))
    group = sc.parse_algebra((ROOT / "corpus" / "groupZ2.alg").read_text())

    def maltsev():
        r = sc.find_maltsev_term(group)
        return f"{r.status.value} clone={r.clone_size}"

    out.append(("maltsev groupZ2", maltsev))

    for name in ("ringZ4", "bool4"):
        base = sc.parse_algebra((ROOT / "corpus" / f"{name}.alg").read_text())
        square = sc.direct_power(base, 2)

        def congruences(square=square):
            return f"congruences={len(sc.all_congruences(square, size_budget=16))}"

        out.append((f"all_congruences {name}^2", congruences))
    for name, text in (("lattice8", lattice_text(8)), ("set7", "algebra set7\nsize 7\n")):
        a = sc.parse_algebra(text)

        def congruences(a=a):
            return f"congruences={len(sc.all_congruences(a))}"

        out.append((f"all_congruences {name}", congruences))

    z6 = sc.parse_algebra(group_text(6))

    def endomorphisms():
        """The endomorphisms as check-identities builds them."""
        from starcheck.cli import _ENDO_NODE_BUDGET

        everything = {x: z6.carrier for x in z6.carrier}
        search = sc.HomomorphismSearch(z6, z6, everything, _ENDO_NODE_BUDGET)
        endos = [sc.Homomorphism(z6, z6, m) for m in search]
        return f"endomorphisms={len(endos)}"

    out.append(("endomorphisms groupZ6", endomorphisms))
    ring2 = sc.parse_algebra((ROOT / "corpus" / "ringZ2.alg").read_text())

    def free_models():
        g = sc.substitution_graph(ring2, 0)
        return f"binary={len(g.binary_model)} unary={len(g.unary_model)}"

    out.append(("substitution_graph ringZ2 e=0", free_models))
    graph = sc.substitution_graph(ring2, 0)

    def sigma():
        v = sc.graph_left_star_symmetric(sc.ProtoPointed(), graph.g0, graph.g1)
        return f"{v.verdict.value} nodes={v.nodes}"

    out.append(("graph symmetry ringZ2 e=0", sigma))

    for n in (3, 4):
        ring = sc.parse_algebra(ring_text(n))

        def graph_route(ring=ring):
            g = sc.substitution_graph(ring, 0)
            v = sc.graph_left_star_symmetric(sc.ProtoPointed(), g.g0, g.g1)
            return f"{v.verdict.value} binary={len(g.binary_model)}"

        out.append((f"graph route ringZ{n} e=0", limited(graph_route)))

    ring4 = sc.parse_algebra((ROOT / "corpus" / "ringZ4.alg").read_text())
    square = sc.direct_power(ring4, 2)

    def power():
        return f"size={sc.direct_power(square, 2).size}"

    def square_rows():
        from starcheck import algebra

        size, constants, plan, *_ = algebra._closure_rows(square, square=True)
        return f"size={size} constants={constants} steps={len(plan)}"

    def enumeration(square=square):
        enum = sc.enumerate_reflexive_compatible(square)
        return f"relations={len(enum.relations)} truncated={enum.truncated}"

    def audit(square=square):
        report = sc.audit_algebra(sc.ProtoPointed(), square, congruence_size_budget=16)
        return " ".join(f"{c.verdict.value}/{c.examined}" for c in report.conditions)

    congruences = sc.all_congruences(square, size_budget=16)

    def permutability():
        """Suites 1-2 of the audit alone, on the congruences found once."""
        from starcheck import relations

        ctx = sc.ProtoPointed()
        masks = [sc.congruence_relation(c).mask for c in congruences]
        witnesses = list(relations._star_permute_witnesses(ctx, square, masks))
        return f"pairs={len(congruences) ** 2} failures={len(witnesses)}"

    lattice8 = sc.parse_algebra(lattice_text(8))

    def lattice_audit():
        report = sc.audit_algebra(sc.parse_context("pointed:bot"), lattice8)
        return " ".join(
            f"{c.verdict.value}/{c.examined}/{len(c.witnesses)}" for c in report.conditions
        )

    out.append(("direct_power ringZ4^2", power))
    out.append(("square rows ringZ4^2", square_rows))
    out.append(("enumerate_reflexive_compatible ringZ4^2", enumeration))
    out.append(("audit_algebra ringZ4^2 proto", audit))
    ring3_square = sc.direct_power(sc.parse_algebra(ring_text(3)), 2)
    out.append(("audit_algebra ringZ3^2 proto", lambda: audit(ring3_square)))
    out.append(("audit suites 1-2 ringZ4^2 proto", permutability))
    out.append(("audit_algebra lattice8 pointed:bot", lattice_audit))

    set3 = sc.parse_algebra((ROOT / "corpus" / "set3.alg").read_text())
    family = [sc.Relation(set3, set3, mask) for mask in range(1 << 9)]

    def compose_star():
        """star(s ; r) == star(s) ; r on set3 through the public functions."""
        ctx = sc.Total()
        stars = [sc.star(ctx, s) for s in family]
        held = sum(
            sc.star(ctx, sc.compose(s, r)) == sc.compose(star_s, r)
            for r in family
            for s, star_s in zip(family, stars)
        )
        return f"cases={len(family) ** 2} held={held}"

    monoid = sc.parse_algebra((ROOT / "corpus" / "monoid01.alg").read_text())
    monoid_square = sc.direct_power(monoid, 2)
    relations = sc.enumerate_reflexive_compatible(monoid_square).relations
    out.append(("enumerate_reflexive_compatible monoid01^2",
                lambda: enumeration(monoid_square)))
    heyting_square = sc.direct_power(algebras["heyt2"], 2)
    out.append(("enumerate_reflexive_compatible heyt2^2",
                lambda: enumeration(heyting_square)))

    def monoid_audit():
        report = sc.audit_algebra(
            sc.parse_context("pointed:zero"), monoid_square, congruence_size_budget=16
        )
        return " ".join(f"{c.verdict.value}/{c.examined}" for c in report.conditions)

    out.append(("audit_algebra monoid01^2 pointed:zero", monoid_audit))

    def symmetry(check):
        ctx = sc.Pointed(0)
        failed = sum(not check(ctx, r).holds for r in relations)
        return f"relations={len(relations)} failed={failed}"

    def compose_stars():
        """compose(star(s), r) over every pair, as audit's permutability
        checks compose."""
        ctx = sc.Pointed(0)
        stars = [sc.star(ctx, s) for s in relations]
        pairs = sum(len(sc.compose(star_s, r)) for star_s in stars for r in relations)
        return f"cases={len(relations) ** 2} pairs={pairs}"

    maps = [sc.Homomorphism(set3, set3, m) for m in itertools.product(range(3), repeat=3)]

    def inverse_image_star():
        """star(f^-1(s)) == star(f^-1(star(s))) on set3 through the public
        functions."""
        ctx = sc.Total()
        held = sum(
            sc.star(ctx, sc.inverse_image(f, s))
            == sc.star(ctx, sc.inverse_image(f, sc.star(ctx, s)))
            for f in maps
            for s in family
        )
        return f"cases={len(maps) * len(family)} held={held}"

    set2 = algebras["set2"]
    set2_family = [sc.Relation(set2, set2, mask) for mask in range(1 << 4)]
    into_set2 = [sc.Homomorphism(set3, set2, m) for m in itertools.product(range(2), repeat=3)]

    def inverse_images():
        """inverse_image along every map set3 -> set2 of every relation on set2."""
        pairs = sum(len(sc.inverse_image(f, s)) for f in into_set2 for s in set2_family)
        return f"cases={len(into_set2) * len(set2_family)} pairs={pairs}"

    out.append(("public star/compose law set3 total", compose_star))
    out.append(("compose star x relation monoid01^2", compose_stars))
    out.append(("public star/inverse_image law set3 total", inverse_image_star))
    out.append(("inverse_image set3->set2", inverse_images))
    out.append(("is_star_symmetric monoid01^2 pointed:0",
                lambda: symmetry(sc.is_star_symmetric)))
    out.append(("is_left_star_symmetric monoid01^2 pointed:0",
                lambda: symmetry(sc.is_left_star_symmetric)))

    def command(argv):
        from starcheck.cli import main

        report = io.StringIO()
        code = main(argv, out=report)
        return f"exit={code} sha256={hashlib.sha256(report.getvalue().encode()).hexdigest()}"

    def check_identities(path, context):
        return command(["check-identities", "--algebra", str(path),
                        "--context", context, "--machine"])

    for context in ("total", "pointed:0"):
        out.append((f"check-identities set3 {context}",
                    lambda context=context: check_identities("corpus/set3.alg", context)))
    square_file = tmp / "monoid01sq.alg"
    square_file.write_text(sc.serialize_algebra(monoid_square))
    out.append(("check-identities monoid01^2 pointed:0",
                lambda: check_identities(square_file, "pointed:0")))

    from starcheck.cli import DEFAULT_RELATION_BUDGET, _identity_family

    ring9 = sc.parse_algebra(ring_text(9))
    for a, context in ((sc.parse_algebra(lattice_text(4)), "pointed:bot"),
                       (ring9, "proto")):
        ctx = sc.parse_context(context)
        sc.validate_context(ctx, a)
        members = _identity_family(a, ctx, DEFAULT_RELATION_BUDGET)[0]

        def pullback(ctx=ctx, members=members):
            pairs = sum(len(sc.star_via_pullback(ctx, r)) for r in members)
            return f"relations={len(members)} pairs={pairs}"

        out.append((f"star_via_pullback {a.name} {context} family", pullback))
        path = tmp / f"{a.name}.alg"
        path.write_text(sc.serialize_algebra(a))
        out.append((f"check-identities {a.name} {context}",
                    lambda path=path, context=context: check_identities(path, context)))

    def identity_ring9():
        return f"image={len(sc.Homomorphism(ring9, ring9, tuple(ring9.carrier)).image)}"

    out.append(("Homomorphism identity ringZ9", identity_ring9))

    out.append(("cli.main congruences ringZ4 --machine",
                lambda: command(["congruences", "--algebra", "corpus/ringZ4.alg", "--machine"])))

    sys.path.insert(0, str(ROOT / "tests"))
    from cli_matrix import GOLDEN_RUNS

    def golden_matrix():
        from starcheck.cli import main

        codes, digest = [], hashlib.sha256()
        for _, argv in GOLDEN_RUNS:
            clear_caches()
            report = io.StringIO()
            codes.append(str(main(argv, out=report)))
            digest.update(report.getvalue().encode())
        return f"exits={''.join(codes)} sha256={digest.hexdigest()}"

    out.append(("golden matrix cli.main", golden_matrix))
    return out


def starcheck_caches() -> list:
    """The memoized functions of every loaded starcheck module."""
    return [
        obj
        for module in list(sys.modules.values())
        if getattr(module, "__name__", "").startswith("starcheck.")
        for obj in list(vars(module).values())
        if hasattr(obj, "cache_clear")
    ]


def clear_caches():
    """Empty the memoized functions of every starcheck module."""
    for cache in starcheck_caches():
        cache.cache_clear()


def machine() -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "system": platform.system(),
        "release": platform.release(),
        "machine": platform.machine(),
        "processor": platform.processor(),
        "cpus": os.cpu_count(),
    }


def serve(src: str) -> None:
    """Child interpreter: import starcheck from `src`, print the case names
    as one JSON line, then time the case named on each input line and
    answer with the JSON line [fastest seconds, verdict]."""
    sys.path.insert(0, str(pathlib.Path(src).resolve()))
    os.chdir(ROOT)  # the golden commands name corpus files relative to it
    import starcheck as sc

    with tempfile.TemporaryDirectory() as tmp:
        calls = dict(cases(sc, pathlib.Path(tmp)))
        # found once: scanning the modules costs ~0.2 ms, more than many cases
        caches = starcheck_caches()
        print(json.dumps(list(calls)), flush=True)
        for line in sys.stdin:
            call = calls[line.strip()]
            times = []
            while len(times) < MIN_CALLS or sum(times) < REPEAT_UNTIL_S:
                for cache in caches:
                    cache.cache_clear()
                start = time.perf_counter()
                verdict = call()
                times.append(time.perf_counter() - start)
            print(json.dumps([min(times), verdict]), flush=True)


class Child:
    """A `serve` interpreter for one label."""

    def __init__(self, src: str):
        self.proc = subprocess.Popen(
            [sys.executable, __file__, "--serve", src],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        self.names = json.loads(self.proc.stdout.readline())

    def run(self, name: str) -> tuple[float, str]:
        self.proc.stdin.write(name + "\n")
        self.proc.stdin.flush()
        seconds, verdict = json.loads(self.proc.stdout.readline())
        return seconds, verdict

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--label", action="append", metavar="NAME[=SRC]",
        help="a label and the src directory it imports (repeatable)",
    )
    parser.add_argument("--out")
    parser.add_argument("--serve", metavar="SRC", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.serve:
        serve(args.serve)
        return 0
    if not args.out:
        parser.error("--out is required")

    labels = dict(
        text.split("=", 1) if "=" in text else (text, str(ROOT / "src"))
        for text in args.label or ["change"]
    )
    children = {label: Child(src) for label, src in labels.items()}
    order = list(children)
    results = {label: {} for label in order}
    try:
        for name in children[order[0]].names:
            # one warm-up call per label; its verdict is the one recorded
            verdicts = {label: children[label].run(name)[1] for label in order}
            runs = {label: [] for label in order}
            for repeat in range(REPEATS):
                shift = repeat % len(order)
                for label in order[shift:] + order[:shift]:
                    runs[label].append(children[label].run(name)[0])
            for label in order:
                median = statistics.median(runs[label])
                fastest = min(runs[label])
                results[label][name] = {
                    "median_s": round(median, 6),
                    "fastest_s": round(fastest, 6),
                    "runs_s": [round(t, 6) for t in runs[label]],
                    "verdict": verdicts[label],
                }
                print(f"{label:>8}  {name:<40} {median:10.6f} s  fastest {fastest:10.6f} s"
                      f"  {verdicts[label]}")
    finally:
        for child in children.values():
            child.close()

    out = pathlib.Path(args.out)
    doc = json.loads(out.read_text()) if out.exists() else {}
    doc["machine"] = machine()
    doc["method"] = (
        f"time.perf_counter around each full call; a repeat calls the case"
        f" until {REPEAT_UNTIL_S} s are spent and at least {MIN_CALLS} times,"
        " and keeps the fastest call;"
        f" median and fastest of {REPEATS} repeats after one warm-up repeat; starcheck"
        " caches cleared before every call; each label in its own child"
        " interpreter, the label that runs first rotating on every repeat"
    )
    doc.setdefault("results", {}).update(results)
    out.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
