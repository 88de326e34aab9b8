import io
import re
import subprocess
import sys

import pytest

import starcheck as sc
from starcheck import cli
from starcheck.cli import main, parse_relation, serialize_relation

from cli_matrix import GOLDEN_RUNS
from conftest import CORPUS, all_maps, load_algebra

ROOT = CORPUS.parent


def run_cli(argv):
    buf = io.StringIO()
    code = main(argv, out=buf)
    return code, buf.getvalue()


# a monounary algebra whose 4 elements all map to the constant: more
# reflexive compatible relations than a budget of 48
MONO_C = "algebra monoC\nsize 4\nconst bot = 0\nop f/1 = [0 0 0 0]\n"


@pytest.fixture(autouse=True)
def in_repo_root(monkeypatch):
    monkeypatch.chdir(ROOT)


class TestRoundTrips:
    def test_corpus_algebras_byte_identical(self):
        for path in sorted(CORPUS.glob("*.alg")):
            text = path.read_text()
            a = sc.parse_algebra(text, path.name)
            assert sc.serialize_algebra(a) == text

    def test_corpus_relations_byte_identical(self):
        for path in sorted(CORPUS.glob("*.rel")):
            text = path.read_text()
            algebra_name = text.splitlines()[1].split()[1]
            a = load_algebra(algebra_name)
            parsed = parse_relation(text, a, path.name)
            assert serialize_relation(parsed.relation, parsed.name, a.name) == text


class TestRelationParsing:
    def test_simple_pairs(self, set2):
        text = "relation r\nalgebra set2\npair 0 0\npair 0 1\n"
        parsed = parse_relation(text, set2)
        assert set(parsed.relation.pairs()) == {(0, 0), (0, 1)}

    def test_range_error(self, set2):
        text = "relation r\nalgebra set2\npair 5 0\n"
        with pytest.raises(sc.ParseError, match="out of range"):
            parse_relation(text, set2)

    @pytest.mark.parametrize("pair, column", [
        ("pair 0_1 +0", 7),
        ("pair \uff10 1", 6),  # a non-ASCII digit
        ("pair 0 x", 8),
        ("pair 0 5", 8),
    ])
    def test_error_column_at_offending_token(self, set2, pair, column):
        text = f"relation r\nalgebra set2\n{pair}\n"
        with pytest.raises(sc.ParseError) as exc:
            parse_relation(text, set2)
        assert (exc.value.line, exc.value.column) == (3, column)

    def test_duplicates_deduplicated_with_warning(self, set2):
        text = "relation r\nalgebra set2\npair 0 1\npair 0 1\n"
        parsed = parse_relation(text, set2)
        assert parsed.duplicates == ((0, 1),)
        assert len(parsed.relation) == 1

    def test_algebra_mismatch(self, set2):
        text = "relation r\nalgebra other\npair 0 0\n"
        with pytest.raises(sc.ParseError, match="over algebra"):
            parse_relation(text, set2)

    def test_incompatible_relation_reported(self):
        code, out = run_cli([
            "check-relation", "--algebra", "corpus/bool2.alg",
            "--relation", "corpus/bool2_order.rel",
            "--context", "proto", "--property", "left-star-symmetric",
            "--machine",
        ])
        assert "compatible=false" in out


class TestGoldenReports:
    @pytest.mark.parametrize("name,argv", GOLDEN_RUNS, ids=[n for n, _ in GOLDEN_RUNS])
    def test_matches_golden(self, name, argv):
        golden = (CORPUS / "golden" / f"{name}.txt").read_text()
        expected_exit = int(golden.splitlines()[0].split()[2])
        body = golden.split("\n", 1)[1]
        code, out = run_cli(argv)
        assert out == body
        assert code == expected_exit


class TestExitCodes:
    def test_audit_pass(self):
        code, _ = run_cli(["audit", "--algebra", "corpus/bool4.alg", "--context", "proto", "--machine"])
        assert code == 0

    def test_audit_counterexample(self):
        code, _ = run_cli(["audit", "--algebra", "corpus/monoid01.alg", "--context", "pointed:0", "--machine"])
        assert code == 1

    def test_find_terms_absent(self):
        code, out = run_cli([
            "find-terms", "--algebra", "corpus/monoid01.alg",
            "--kind", "e-subtractive", "--context", "pointed:0", "--machine",
        ])
        assert code == 1
        assert "reason=clone-exhausted clone-size=4" in out

    def test_check_relation_witness(self):
        code, out = run_cli([
            "check-relation", "--algebra", "corpus/set3.alg",
            "--relation", "corpus/set3_r1.rel",
            "--context", "pointed:0", "--property", "left-star-symmetric",
            "--machine",
        ])
        assert code == 1
        assert "witness=(0,1)" in out

    def test_parse_error_exit(self, tmp_path, capsys):
        bad = tmp_path / "bad.alg"
        bad.write_text("algebra a\nsize 2\nop and/2 = [0 0 0]\n")
        code = main(["audit", "--algebra", str(bad), "--machine"], out=io.StringIO())
        assert code == 2
        err = capsys.readouterr().err
        assert "bad.alg:3:" in err

    def test_missing_file_exit(self):
        code, _ = run_cli(["audit", "--algebra", "nope.alg", "--machine"])
        assert code == 2

    def test_usage_error_exit(self, capsys):
        assert main(["frobnicate"], out=io.StringIO()) == 2
        assert main(["audit"], out=io.StringIO()) == 2

    def test_total_context_rejected_for_subtractive(self, capsys):
        code = main(
            ["find-terms", "--algebra", "corpus/bool2.alg", "--kind",
             "e-subtractive", "--context", "total"],
            out=io.StringIO(),
        )
        assert code == 2

    def test_congruence_budget_exit(self, tmp_path, capsys):
        big = tmp_path / "set9.alg"
        big.write_text("algebra set9\nsize 9\n")
        code = main(["congruences", "--algebra", str(big), "--machine"], out=io.StringIO())
        assert code == 3

    def test_clone_budget_inconclusive_exit(self):
        # 10 cells hold not one 16-cell table: the report still has its header
        for budget, size in (("64", 4), ("10", 0)):
            code, out = run_cli([
                "find-terms", "--algebra", "corpus/ringZ4.alg",
                "--kind", "e-subtractive", "--context", "proto",
                "--clone-budget", budget, "--machine",
            ])
            lines = out.splitlines()
            assert code == 3
            assert lines[0] == (
                "RUN command=find-terms algebra=ringZ4 context=proto kind=e-subtractive"
            )
            assert lines[1] == f"INFO clone-size={size} complete=false"
            assert lines[2:] == [
                f"CHECK subtractive-term[e={e}] INCONCLUSIVE reason=clone-budget"
                for e in range(4)
            ]

    def test_internal_fault_exit(self, monkeypatch, capsys):
        # a certification failure must not pass for an ABSENT verdict (1)
        from starcheck import terms

        monkeypatch.setattr(terms, "_subtractive_table", lambda table, e, size: True)
        code = main(
            ["find-terms", "--algebra", "corpus/ringZ2.alg", "--kind",
             "e-subtractive", "--context", "proto", "--machine"],
            out=io.StringIO(),
        )
        assert code == 4
        assert "internal error" in capsys.readouterr().err

    @pytest.mark.parametrize("kind", ["e-subtractive", "maltsev"])
    def test_incoherent_witness_tree_exit(self, incoherent_clone, kind, capsys):
        # a witness whose tree does not evaluate to its table is a fault in
        # the search (4), not a usage error (2)
        code = main(
            ["find-terms", "--algebra", "corpus/groupZ2.alg", "--kind", kind,
             "--context", "proto", "--machine"],
            out=io.StringIO(),
        )
        err = capsys.readouterr().err
        assert code == 4
        assert "internal error" in err and "does not evaluate" in err

    def test_unexpected_exception_is_internal_error(self, monkeypatch, capsys):
        # any fault inside a command exits 4, not 1 (FAIL), and prints no
        # traceback
        from starcheck import cli

        def broken(*args, **kwargs):
            raise KeyError("missing point")

        monkeypatch.setattr(cli, "all_congruences", broken)
        code = main(
            ["congruences", "--algebra", "corpus/ringZ4.alg", "--machine"],
            out=io.StringIO(),
        )
        err = capsys.readouterr().err
        assert code == 4
        assert "internal error" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv", [
        pytest.param(["audit", "--max-relations"], id="--max-relations"),
        pytest.param(["find-terms", "--kind", "maltsev", "--clone-budget"], id="--clone-budget"),
    ])
    def test_non_positive_budget_is_usage_error(self, argv, capsys):
        code = main(
            [*argv, "0", "--algebra", "corpus/set2.alg"], out=io.StringIO()
        )
        err = capsys.readouterr().err
        assert code == 2
        assert "starcheck: error: budgets must be positive" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command,flag", [
        ("congruences", "--context"),
        ("congruences", "--max-relations"),
        ("congruences", "--clone-budget"),
        ("check-relation", "--max-relations"),
        ("check-relation", "--clone-budget"),
        ("audit", "--clone-budget"),
        ("check-identities", "--clone-budget"),
        ("find-terms", "--max-relations"),
    ])
    def test_flag_the_command_does_not_read_is_rejected(self, command, flag, capsys):
        argv = {
            "check-relation": ["--relation", "corpus/set3_r1.rel",
                               "--property", "left-star-symmetric"],
            "find-terms": ["--kind", "maltsev"],
        }.get(command, [])
        value = "total" if flag == "--context" else "10"
        code = main([command, "--algebra", "corpus/set3.alg", *argv, flag, value],
                    out=io.StringIO())
        assert code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        pytest.param(["audit", "--context", "weird"], id="unknown-context"),
        pytest.param(["find-terms", "--kind", "maltsev", "--context", "weird"],
                     id="maltsev-unknown-context"),
        pytest.param(["find-terms", "--kind", "e-subtractive", "--context", "proto"],
                     id="proto-without-constants"),
    ])
    def test_bad_request_is_usage_error(self, argv, capsys):
        code = main([*argv, "--algebra", "corpus/set3.alg"], out=io.StringIO())
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("starcheck: error: ")

    def test_non_utf8_file_is_usage_error(self, tmp_path, capsys):
        bad = tmp_path / "latin1.alg"
        bad.write_bytes("algebra caf\xe9\nsize 1\n".encode("latin-1"))
        code = main(["congruences", "--algebra", str(bad)], out=io.StringIO())
        assert code == 2
        assert "not a UTF-8 text file" in capsys.readouterr().err

    def test_internal_value_error_is_not_usage_error(self, monkeypatch, capsys):
        # a ValueError from inside a kernel is a fault (4), not bad input (2)
        from starcheck import cli

        def broken(*args, **kwargs):
            raise ValueError("candidate domain is not a subuniverse")

        monkeypatch.setattr(cli, "all_congruences", broken)
        code = main(
            ["congruences", "--algebra", "corpus/ringZ4.alg", "--machine"],
            out=io.StringIO(),
        )
        err = capsys.readouterr().err
        assert code == 4
        assert "internal error" in err and "not a subuniverse" in err

    def test_truncated_family_is_inconclusive(self, tmp_path):
        # the laws hold on every case checked, but the relation budget cut
        # the family short, so the command decides nothing
        path = tmp_path / "monoC.alg"
        path.write_text(MONO_C)
        code, out = run_cli(["check-identities", "--algebra", str(path),
                             "--context", "pointed:bot", "--max-relations", "48",
                             "--machine"])
        lines = out.splitlines()
        assert lines[:2] == [
            "RUN command=check-identities algebra=monoC context=pointed:bot",
            "WARN relation-budget=48/48 family=truncated",
        ]
        checks = [line for line in lines if line.startswith("CHECK ")]
        assert len(checks) == 5
        assert all(" PASS " in line and line.endswith(" note=truncated") for line in checks)
        assert code == 3

    def test_invalid_context_exit(self, capsys):
        code = main(
            ["audit", "--algebra", "corpus/bool2.alg", "--context", "pointed:0"],
            out=io.StringIO(),
        )
        assert code == 2

    @pytest.mark.parametrize("files, argv, message", [
        pytest.param({"a.alg": ""}, ["audit", "--algebra", "a.alg"],
                     "a.alg:1:1: empty document", id="empty-algebra"),
        pytest.param({"a.alg": "algebra a\nsize 0\n"}, ["audit", "--algebra", "a.alg"],
                     "a.alg:2:6: size must be at least 1", id="size-0"),
        pytest.param({"a.alg": "algebra a\nsize 2\nfun c = 1\n"},
                     ["audit", "--algebra", "a.alg"],
                     "a.alg:3:1: expected a const or op line", id="neither-const-nor-op"),
        pytest.param({"a.alg": "algebra a\nsize 2\nconst c = 1 2\n"},
                     ["audit", "--algebra", "a.alg"],
                     "a.alg:3:13: unexpected trailing text", id="trailing-text"),
        pytest.param({"r.rel": "relation r\n"},
                     ["check-relation", "--algebra", str(ROOT / "corpus" / "set3.alg"),
                      "--relation", "r.rel", "--context", "pointed:0",
                      "--property", "left-star-symmetric"],
                     "r.rel:1:1: expected relation and algebra headers", id="one-header"),
        pytest.param({}, ["audit", "--algebra", str(ROOT / "corpus" / "set3.alg"),
                          "--context", "pointed:"],
                     "pointed context needs a base element", id="pointed-without-base"),
    ])
    def test_edge_input_is_usage_error(
        self, files, argv, message, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.chdir(tmp_path)
        for name, text in files.items():
            (tmp_path / name).write_text(text)
        code = main(argv, out=io.StringIO())
        assert code == 2
        assert capsys.readouterr().err == f"starcheck: error: {message}\n"


def cyclic_text(n: int, ring: bool) -> str:
    """Z_n as an abelian group (zero, add, neg) or a ring (also one, mul)."""

    def row(values):
        return " ".join(map(str, values))

    name = f"ringZ{n}" if ring else f"groupZ{n}"
    lines = [f"algebra {name}", f"size {n}", "const zero = 0"]
    if ring:
        lines.append("const one = 1")
    lines.append(f"op add/2 = [{row((a + b) % n for a in range(n) for b in range(n))}]")
    if ring:
        lines.append(f"op mul/2 = [{row(a * b % n for a in range(n) for b in range(n))}]")
    lines.append(f"op neg/1 = [{row(-a % n for a in range(n))}]")
    return "\n".join(lines) + "\n"


def law_cases(out: str) -> dict[str, tuple[str, int]]:
    """CHECK key -> (verdict, cases) of a machine check-identities report."""
    laws = {}
    for line in out.splitlines():
        if line.startswith("CHECK "):
            _, key, verdict, cases = line.split()[:4]
            laws[key] = (verdict, int(cases.removeprefix("cases=")))
    return laws


class TestEndomorphismLaws:
    """check-identities on 6-element algebras, past the old size cap of 5."""

    @pytest.mark.parametrize("ring,context", [(True, "proto"), (False, "pointed:0")])
    def test_six_elements_counted_like_brute_force(self, tmp_path, ring, context):
        text = cyclic_text(6, ring)
        path = tmp_path / "z6.alg"
        path.write_text(text)
        a = sc.parse_algebra(text)
        endos = [f for f in all_maps(a, a) if context == "proto" or f.map[0] == 0]
        code, out = run_cli(["check-identities", "--algebra", str(path),
                             "--context", context, "--machine"])
        laws = law_cases(out)
        family = laws["law-star-pullback"][1]
        assert laws["law-kernel-pair-inverse-image"] == ("PASS", len(endos))
        assert laws["law-inverse-image-star"] == ("PASS", len(endos) * family)
        assert code == 0

    def test_ringZ9_family_needs_no_congruence_lattice(self, tmp_path):
        # a complete enumeration already holds every congruence, so the
        # size cap of all_congruences is never reached
        path = tmp_path / "z9.alg"
        path.write_text(cyclic_text(9, ring=True))
        code, out = run_cli(["check-identities", "--algebra", str(path),
                             "--context", "proto", "--machine"])
        laws = law_cases(out)
        assert len(laws) == 5
        assert all(verdict == "PASS" for verdict, _ in laws.values())
        assert code == 0

    def test_ringZ9_truncated_family_skips_the_lattice(self, tmp_path):
        # a truncated family would add the congruence lattice, which is
        # over its size cap on 9 elements; the report keeps its header
        path = tmp_path / "z9.alg"
        path.write_text(cyclic_text(9, ring=True))
        code, out = run_cli(["check-identities", "--algebra", str(path),
                             "--context", "proto", "--max-relations", "2", "--machine"])
        lines = out.splitlines()
        assert lines[:2] == [
            "RUN command=check-identities algebra=ringZ9 context=proto",
            "WARN relation-budget=2/2 family=truncated",
        ]
        checks = [line for line in lines if line.startswith("CHECK ")]
        assert len(checks) == 5
        assert all(" PASS " in line and line.endswith(" note=truncated") for line in checks)
        assert code == 3

    def test_spent_node_budget_is_inconclusive(self, tmp_path, monkeypatch):
        from starcheck import cli

        monkeypatch.setattr(cli, "_ENDO_NODE_BUDGET", 1)
        path = tmp_path / "z6.alg"
        path.write_text(cyclic_text(6, ring=True))
        code, out = run_cli(["check-identities", "--algebra", str(path),
                             "--context", "proto", "--machine"])
        assert out.splitlines()[0] == "RUN command=check-identities algebra=ringZ6 context=proto"
        laws = law_cases(out)
        assert laws["law-inverse-image-star"] == ("INCONCLUSIVE", 0)
        assert laws["law-kernel-pair-inverse-image"] == ("INCONCLUSIVE", 0)
        assert laws["law-compose-star"][0] == "PASS"
        assert code == 3


class TestStarPullbackLaw:
    """law-star-pullback compares star with the pullback route."""

    def test_law_fails_when_star_drops_a_null_row(self, monkeypatch):
        from starcheck import relations

        null_rows = relations._null_rows

        def dropping(ctx, a):
            rows = null_rows(ctx, a)
            first = ((rows & -rows).bit_length() - 1) // a.size
            return rows & ~((1 << a.size) - 1 << first * a.size)

        monkeypatch.setattr(relations, "_null_rows", dropping)
        code, out = run_cli(["check-identities", "--algebra", "corpus/set2.alg",
                             "--context", "pointed:0", "--machine"])
        assert "CHECK law-star-pullback FAIL cases=16" in out.splitlines()
        assert code == 1

    def test_first_projection_is_validated_once(self, tmp_path, monkeypatch):
        # the square's first projection is checked once per (context,
        # algebra), not once per member of the family
        from starcheck import relations

        n = 4
        path = tmp_path / "lattice4.alg"
        path.write_text(
            f"algebra lattice4\nsize {n}\nconst bot = 0\n"
            f"op meet/2 = [{' '.join(str(min(a, b)) for a in range(n) for b in range(n))}]\n"
            f"op join/2 = [{' '.join(str(max(a, b)) for a in range(n) for b in range(n))}]\n"
        )
        validated = []

        def counting(*args):
            validated.append(args)
            return sc.Homomorphism(*args)

        monkeypatch.setattr(relations, "Homomorphism", counting)
        relations._square_kernel.cache_clear()
        code, out = run_cli(["check-identities", "--algebra", str(path),
                             "--context", "pointed:bot", "--machine"])
        assert law_cases(out)["law-star-pullback"] == ("PASS", 200)
        assert [(d.size, c.size) for d, c, _ in validated] == [(n * n, n)]
        assert code == 0


class TestHumanReports:
    @pytest.mark.parametrize("algebra,flags,code,tail", [
        ("groupZ2", [], 0, ["  maltsev term: mul(x, mul(y, z))",
                            "  verdict certifies the variety generated by groupZ2"]),
        ("monoid01", [], 1,
         ["  no maltsev term: the complete ternary clone of size 8 was exhausted",
          "  verdict certifies the variety generated by monoid01"]),
        # nothing is certified, so no trailer
        ("groupZ2", ["--clone-budget", "10"], 3,
         ["  maltsev term: inconclusive, clone budget exhausted"]),
        # 7 cells hold not one 8-cell ternary table
        ("groupZ2", ["--clone-budget", "7"], 3,
         ["  maltsev term: inconclusive, clone budget exhausted"]),
    ], ids=["found", "absent", "inconclusive", "below-one-table"])
    def test_maltsev_verdicts(self, algebra, flags, code, tail):
        got, out = run_cli(["find-terms", "--algebra", f"corpus/{algebra}.alg",
                            "--kind", "maltsev", *flags])
        lines = out.splitlines()
        assert lines[0] == f"find-terms: algebra={algebra} kind=maltsev"
        assert lines[2:] == tail
        assert got == code

    def test_truncated_family_warns(self, tmp_path):
        path = tmp_path / "monoC.alg"
        path.write_text(MONO_C)
        got, out = run_cli(["check-identities", "--algebra", str(path),
                            "--context", "pointed:bot", "--max-relations", "48"])
        assert out.splitlines()[1] == (
            "  warning: relation budget spent (48/48), the family is truncated"
        )
        assert got == 3


class TestAuditWitnessLines:
    def test_opposite_side_witness(self, tmp_path):
        # star-symmetry fails first on the opposite of {(0,0),(0,1),(1,1)}
        path = tmp_path / "opp.alg"
        path.write_text("algebra opp\nsize 2\nconst c = 1\nop f/1 = [1 1]\n")
        code, out = run_cli(["audit", "--algebra", str(path), "--context", "proto",
                             "--machine"])
        assert code == 1
        assert out.splitlines()[-1] == (
            "CHECK reflexive-star-symmetric FAIL examined=4 failures=2 "
            "witness=(1,0) relation={(0,0),(0,1),(1,1)} side=opposite"
        )

    def test_human_permutability_counterexample(self):
        code, out = run_cli(["audit", "--algebra", "corpus/set3.alg",
                             "--context", "pointed:0"])
        assert code == 1
        lines = out.splitlines()
        assert lines[1:3] == [
            "  congruence pairs star permute: FAIL (25 examined)",
            "    counterexample: congruences {0},{1,2} and {0,2},{1}, pair (0,1)",
        ]

    @pytest.mark.parametrize("machine,tail", [
        (True, [f"CHECK {key} INCONCLUSIVE examined=2 note=truncated"
                for key in ("reflexive-left-star-symmetric", "reflexive-star-symmetric")]),
        (False, [line for label in ("reflexive left star symmetric", "reflexive star symmetric")
                 for line in (f"  {label}: INCONCLUSIVE (2 examined)",
                              "    note: enumeration truncated by budget")]),
    ], ids=["machine", "human"])
    def test_truncated_symmetry_suites(self, machine, tail):
        # ringZ4 has more reflexive compatible relations than a budget of 2,
        # and suites 3-4 find no failure among the two kept
        code, out = run_cli(["audit", "--algebra", "corpus/ringZ4.alg", "--context", "proto",
                             "--max-relations", "2", *["--machine"] * machine])
        assert code == 3
        assert out.splitlines()[-len(tail):] == tail


MACHINE_LINE = re.compile(
    r"^(RUN|INFO|WARN|CONGRUENCE \d+|COUNT|CHECK \S+ (PASS|FAIL|INCONCLUSIVE))"
)


class TestMachineGrammar:
    def test_every_line_tagged(self):
        for name, argv in GOLDEN_RUNS:
            if "--machine" not in argv:
                continue
            _, out = run_cli(argv)
            for line in out.splitlines():
                assert MACHINE_LINE.match(line), (name, line)

    def test_warn_line_for_duplicates(self, tmp_path):
        rel = tmp_path / "dup.rel"
        rel.write_text("relation dup\nalgebra set2\npair 0 1\npair 0 1\n")
        code, out = run_cli([
            "check-relation", "--algebra", "corpus/set2.alg",
            "--relation", str(rel),
            "--context", "pointed:0", "--property", "left-star-symmetric",
            "--machine",
        ])
        assert "WARN duplicate-pair=(0,1)" in out


class TestDeterminism:
    def test_repeated_runs_byte_identical(self):
        for name, argv in GOLDEN_RUNS[:6]:
            first = run_cli(argv)
            second = run_cli(argv)
            assert first == second, name


RINGZ4 = ["--algebra", "corpus/ringZ4.alg"]


class TestParserBuild:
    """main builds only the invoked command's subparser; what it prints and
    returns must be what the five-command parser gives."""

    @pytest.mark.parametrize("argv", [
        pytest.param([], id="no-arguments"),
        pytest.param(["-h"], id="-h"),
        pytest.param(["--help"], id="--help"),
        pytest.param(["frobnicate"], id="unknown-command"),
        pytest.param(["audit"], id="audit-without-flags"),
        *[pytest.param([command, "-h"], id=f"{command}-h") for command in cli._COMMANDS],
        pytest.param(["congruences", *RINGZ4, "--context", "total"], id="unrecognized-flag"),
        pytest.param(["audit", *RINGZ4, "--bogus"], id="unknown-flag"),
        pytest.param(["congruences", *RINGZ4, "trailing"], id="trailing-positional"),
        pytest.param(["find-terms", *RINGZ4], id="find-terms-without-kind"),
        pytest.param(["find-terms", *RINGZ4, "--kind", "nope"], id="find-terms-bad-kind"),
        pytest.param(["audit", *RINGZ4, "--max-relations", "x"], id="non-integer-budget"),
        pytest.param(["--machine", "audit"], id="option-before-command"),
    ])
    def test_output_matches_full_parser(self, argv, monkeypatch, capsys):
        monkeypatch.setenv("COLUMNS", "80")
        code = main(argv)
        restricted = (code, *capsys.readouterr())
        full = cli.build_parser
        monkeypatch.setattr(cli, "build_parser", lambda command=None: full())
        code = main(argv)
        assert restricted == (code, *capsys.readouterr())

    @pytest.mark.parametrize("argv, error", [
        pytest.param([], "the following arguments are required: command", id="missing"),
        pytest.param(["frobnicate"], "argument command: invalid choice: 'frobnicate'",
                     id="invalid-choice"),
    ])
    def test_full_parser_names_the_command_argument(self, argv, error, capsys):
        assert main(argv) == 2
        assert f"starcheck: error: {error}" in capsys.readouterr().err

    def test_command_builds_only_its_subparser(self, monkeypatch):
        built = []
        full = cli.build_parser

        def recording(command=None):
            built.append(command)
            return full(command)

        monkeypatch.setattr(cli, "build_parser", recording)
        run_cli(["congruences", *RINGZ4, "--machine"])
        run_cli(["--machine", "congruences", *RINGZ4])
        assert built == ["congruences", None]

    def test_argv_defaults_to_sys_argv(self, monkeypatch):
        argv = dict(GOLDEN_RUNS)["check-relation__set3_r1__pointed0"]
        monkeypatch.setattr(sys, "argv", ["starcheck", *argv])
        buf = io.StringIO()
        code = main(None, out=buf)
        assert (code, buf.getvalue()) == run_cli(argv)


class TestConsoleEntry:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "starcheck", "congruences",
             "--algebra", "corpus/ringZ4.alg", "--machine"],
            capture_output=True, text=True, cwd=ROOT,
        )
        assert proc.returncode == 0
        assert "COUNT congruences=3" in proc.stdout
