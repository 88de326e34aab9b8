import itertools
import random

import pytest

import starcheck as sc
from starcheck.algebra import _closure_rows
from starcheck.errors import BudgetError, ParseError

from conftest import (
    all_maps,
    all_partitions,
    compatible_partition,
    empty_set_algebra,
    load_algebra,
)


class TestParsing:
    def test_bool2_shape(self, bool2):
        assert bool2.size == 2
        assert len(bool2.signature.symbols) == 5
        assert bool2.signature.constant_symbols == ("zero", "one")
        assert bool2.apply("and", (1, 1)) == 1
        assert bool2.apply("not", (0,)) == 1

    @pytest.mark.parametrize("args, message", [
        ((1,), r"^expected 2 arguments, got 1$"),
        ((1, 2, 3), r"^expected 2 arguments, got 3$"),
        ((1, 4), r"^arguments \(1, 4\) out of range for size 4$"),
        ((-1, 0), r"^arguments \(-1, 0\) out of range for size 4$"),
    ])
    def test_apply_rejects_bad_arguments(self, ring_z4, args, message):
        # (1, 4) would read the cell of (2, 0), and (1,) the cell of (0, 1)
        with pytest.raises(ValueError, match=message):
            ring_z4.apply("add", args)

    def test_table_length_error(self):
        text = "algebra a\nsize 2\nop and/2 = [0 0 0]\n"
        with pytest.raises(ParseError) as exc:
            sc.parse_algebra(text, "a.alg")
        assert "expected 4" in str(exc.value)
        assert exc.value.line == 3

    def test_out_of_range_entry(self):
        with pytest.raises(ParseError, match="out of range"):
            sc.parse_algebra("algebra a\nsize 2\nop f/1 = [0 2]\n")

    def test_syntax_error_position(self):
        with pytest.raises(ParseError) as exc:
            sc.parse_algebra("algebra a\nsize 2\nconst c 1\n", "a.alg")
        assert exc.value.line == 3
        assert "a.alg:3:" in str(exc.value)

    @pytest.mark.parametrize("text, line, column", [
        ("algebra a\nsize \uff12\n", 2, 6),  # a non-ASCII digit
        ("algebra a\nsize 2\nop f/1 = [0 2]\n", 3, 13),
        ("algebra a\nsize 2\nconst c = 0\nconst c = 1\n", 4, 7),
        ("algebra a\nsize 2\nop f/1 = [0]\n", 3, 10),
    ])
    def test_error_column_at_offending_token(self, text, line, column):
        with pytest.raises(ParseError) as exc:
            sc.parse_algebra(text, "a.alg")
        assert (exc.value.line, exc.value.column) == (line, column)

    def test_duplicate_symbol(self):
        text = "algebra a\nsize 2\nconst c = 0\nconst c = 1\n"
        with pytest.raises(ParseError, match="duplicate"):
            sc.parse_algebra(text)

    def test_missing_size(self):
        with pytest.raises(ParseError):
            sc.parse_algebra("algebra a\n")

    def test_comments_and_blanks(self):
        text = "# header\nalgebra a\n\nsize 2  # two elements\nconst c = 1\n"
        a = sc.parse_algebra(text)
        assert a.constant_value("c") == 1

    def test_monoid_round_trip(self):
        text = "algebra monoid01\nsize 2\nconst zero = 0\nop max/2 = [0 1 1 1]\n"
        a = sc.parse_algebra(text)
        assert a.size == 2 and len(a.signature.symbols) == 2
        assert sc.serialize_algebra(a) == text


MONOID_TEXT = "algebra {name}\nsize {size}\nconst zero = 0\nop {op}/2 = [{table}]\n"


def monoid_copy(name="monoid01", size=2, op="max", table="0 1 1 1"):
    return sc.parse_algebra(MONOID_TEXT.format(name=name, size=size, op=op, table=table))


class TestEquality:
    def test_separately_parsed_copies_are_equal_whatever_their_names(self):
        a, b = monoid_copy(), monoid_copy(name="other")
        assert a is not b and a.name != b.name
        assert a == b and not a != b
        assert hash(a) == hash(b)

    def test_copies_differing_in_structure_are_unequal(self):
        a = monoid_copy()
        others = [
            monoid_copy(table="0 1 1 0"),
            monoid_copy(size=3, table="0 1 2 1 1 2 2 2 2"),
            monoid_copy(op="join"),
        ]
        for b in others:
            assert a != b and not a == b

    def test_never_equal_to_a_name(self, set3):
        assert (set3 == "set3") is False
        assert set3 != "set3"

    def test_relations_over_equal_copies_are_equal(self):
        a, b = monoid_copy(), monoid_copy(name="other")
        r, s = sc.Relation(a, a, 0b1001), sc.Relation(b, b, 0b1001)
        assert r == s and hash(r) == hash(s)


class TestDirectPower:
    def test_power_one_is_identity_encoding(self, monoid01):
        p = sc.direct_power(monoid01, 1)
        assert p.size == monoid01.size
        assert p.tables == monoid01.tables

    def test_monoid_square_coordinatewise(self, monoid01):
        p = sc.direct_power(monoid01, 2)
        assert p.size == 4
        # (0,1) and (1,0) join to (1,1)
        assert p.apply("max", (1, 2)) == 3
        assert p.constant_value("zero") == 0

    def test_set_power_cardinality(self, set3):
        assert sc.direct_power(set3, 2).size == 9

    def test_budget(self, set3):
        with pytest.raises(BudgetError):
            sc.direct_power(set3, 9, budget=4096)


class TestClosure:
    def test_bool4_atom_generates_everything(self, bool4):
        assert sc.subalgebra_closure(bool4, {1}) == frozenset({0, 1, 2, 3})

    def test_empty_seed_empty_signature(self, set3):
        assert sc.subalgebra_closure(set3, set()) == frozenset()

    def test_z4_constants_generate_everything(self, ring_z4):
        assert sc.subalgebra_closure(ring_z4, set()) == frozenset({0, 1, 2, 3})

    def test_monotone_and_idempotent(self, bool4, ring_z4, monoid01):
        for a in (bool4, ring_z4, monoid01):
            for k in range(a.size):
                seed = frozenset(range(k))
                closed = sc.subalgebra_closure(a, seed)
                assert seed <= closed
                assert sc.subalgebra_closure(a, closed) == closed

    def test_out_of_range_seed_messages(self, bool4):
        # the range is checked by min and max; the message still names the
        # smallest offending element
        with pytest.raises(ValueError, match=r"^seed element -2 out of range$"):
            sc.subalgebra_closure(bool4, [5, 1, -2, 4, -1])
        with pytest.raises(ValueError, match=r"^seed element 4 out of range$"):
            sc.subalgebra_closure(bool4, [9, 1, 4, 7])

    def test_constants_subalgebra(self, monoid01, bool4, ring_z4):
        assert sc.constants_subalgebra(monoid01) == frozenset({0})
        assert sc.constants_subalgebra(bool4) == frozenset({0, 3})
        assert sc.constants_subalgebra(ring_z4) == frozenset({0, 1, 2, 3})

    @pytest.mark.parametrize("square", [False, True])
    @pytest.mark.parametrize(
        "name, steps",
        [("monoid01", (1,)), ("heyt2", (1, 1, 2)), ("ringZ4", (1, 1, 1))],
    )
    def test_plan_applies_commutative_operations_once_per_pair(self, name, steps, square):
        # steps per non-constant operation: max; and, or, imp (the only
        # one that does not commute); add, mul, neg
        _, _, plan, _, _ = _closure_rows(load_algebra(name), square=square)
        per_operation = itertools.groupby(plan, key=lambda step: id(step[0].__self__))
        assert tuple(len(list(group)) for _, group in per_operation) == steps


class TestHomomorphisms:
    def test_identity_valid(self, bool4):
        result = sc.check_homomorphism(bool4, bool4, range(4))
        assert isinstance(result, sc.Homomorphism)

    def test_mod2_reduction(self, ring_z4, ring_z2):
        result = sc.check_homomorphism(ring_z4, ring_z2, [0, 1, 0, 1])
        assert isinstance(result, sc.Homomorphism)

    def test_constant_violation_witness(self, ring_z2):
        result = sc.check_homomorphism(ring_z2, ring_z2, [0, 0])
        assert result == ("one", ())

    def test_shape_errors(self, ring_z2):
        with pytest.raises(ValueError):
            sc.check_homomorphism(ring_z2, ring_z2, [0])
        with pytest.raises(ValueError):
            sc.check_homomorphism(ring_z2, ring_z2, [0, 5])

    def test_out_of_range_value_messages(self, ring_z2):
        # the range is checked by min and max; the message still names the
        # first offending entry in table order
        sig = sc.Signature((("f", 1), ("g", 2)))
        with pytest.raises(ValueError, match=r"^table entry 7 for g out of range$"):
            sc.FiniteAlgebra(sig, 2, ((0, 1), (0, 7, 1, -3)))
        with pytest.raises(ValueError, match=r"^table entry -3 for g out of range$"):
            sc.FiniteAlgebra(sig, 2, ((0, 1), (0, -3, 1, 7)))
        with pytest.raises(ValueError, match=r"^map value 5 out of codomain range$"):
            sc.Homomorphism(ring_z2, ring_z2, (5, -1))
        with pytest.raises(ValueError, match=r"^map value -1 out of codomain range$"):
            sc.check_homomorphism(ring_z2, ring_z2, [-1, 5])

    @pytest.mark.parametrize("candidates, message", [
        ({0: [9], 1: [1]}, r"^candidates \[9\] for 0 out of codomain range$"),
        ({0: [0, -1], 1: [1]}, r"^candidates \[-1, 0\] for 0 out of codomain range$"),
        ({0: [0], 5: [1]}, r"^domain element 5 out of range$"),
        ({-1: [0], 0: [1]}, r"^domain element -1 out of range$"),
    ])
    def test_search_rejects_out_of_range_inputs(self, set3, candidates, message):
        with pytest.raises(ValueError, match=message):
            sc.HomomorphismSearch(set3, set3, candidates, 100)

    @pytest.mark.parametrize("domain", [
        pytest.param((0, 1), id="add"),  # 1 + 1 = 2
        pytest.param((0, 2), id="one"),  # the constant 1
    ])
    def test_search_rejects_domain_that_is_not_a_subuniverse(self, ring_z4, domain):
        candidates = {x: ring_z4.carrier for x in domain}
        with pytest.raises(ValueError, match=r"^candidate domain is not a subuniverse$"):
            sc.HomomorphismSearch(ring_z4, ring_z4, candidates, 100)

    @pytest.mark.parametrize("node_budget", [0, -1])
    def test_search_rejects_non_positive_node_budget(self, set3, node_budget):
        with pytest.raises(ValueError, match=r"^node budget must be positive$"):
            sc.HomomorphismSearch(set3, set3, {0: [0]}, node_budget)

    def test_constructor_rejects_non_homomorphism(self, monoid01):
        with pytest.raises(ValueError, match="commute"):
            sc.Homomorphism(monoid01, monoid01, (1, 0))


class TestImageFactorization:
    def test_set_map(self, set3, set2):
        f = sc.Homomorphism(set3, set2, (0, 0, 1))
        surj, image, incl = sc.image_factorization(f)
        assert image.size == 2
        assert surj.map == (0, 0, 1)
        assert sc.compose_homomorphisms(surj, incl).map == f.map

    def test_identity(self, bool4):
        f = sc.identity_homomorphism(bool4)
        _, image, incl = sc.image_factorization(f)
        assert image.size == bool4.size
        assert incl.map == tuple(range(4))

    def test_mod2_surjective(self, ring_z4, ring_z2):
        f = sc.Homomorphism(ring_z4, ring_z2, (0, 1, 0, 1))
        surj, image, incl = sc.image_factorization(f)
        assert image.size == 2
        assert surj.is_surjective

    def test_factorization_properties_exhaustive(self):
        for sa in range(1, 4):
            for sb in range(1, 4):
                a, b = empty_set_algebra(sa), empty_set_algebra(sb)
                for f in all_maps(a, b):
                    surj, image, incl = sc.image_factorization(f)
                    assert sc.compose_homomorphisms(surj, incl).map == f.map
                    assert incl.is_injective
                    assert surj.is_surjective


class TestCongruences:
    def test_generated_no_operations(self, set3):
        c = sc.congruence_generated(set3, [(0, 1)])
        assert c.blocks() == ((0, 1), (2,))

    def test_generated_z4(self, ring_z4):
        c = sc.congruence_generated(ring_z4, [(0, 2)])
        assert c.blocks() == ((0, 2), (1, 3))

    def test_generated_empty_is_discrete(self, bool4):
        c = sc.congruence_generated(bool4, [])
        assert c.block_count == 4

    def test_out_of_range_pair_messages(self, ring_z4):
        # the range is checked by min and max; the message still names the
        # first offending pair in sorted order
        with pytest.raises(ValueError, match=r"^pair \(1,4\) out of range$"):
            sc.congruence_generated(ring_z4, [(2, 9), (1, 4), (0, 1), (7, 0)])
        with pytest.raises(ValueError, match=r"^pair \(-1,2\) out of range$"):
            sc.congruence_generated(ring_z4, [(3, 5), (0, 1), (-1, 2)])

    def test_size_one(self, set1):
        assert len(sc.all_congruences(set1)) == 1

    def test_set3_bell_number(self, set3):
        assert len(sc.all_congruences(set3)) == 5

    def test_set7_bell_number(self):
        # every partition of a bare set is a congruence: Bell(7) = 877, in
        # descending partition order
        congruences = sc.all_congruences(empty_set_algebra(7))
        assert len(congruences) == 877
        assert [c.partition for c in congruences] == sorted(
            all_partitions(7), reverse=True
        )

    def test_z4_lattice(self, ring_z4):
        congruences = sc.all_congruences(ring_z4)
        assert [c.blocks() for c in congruences] == [
            ((0,), (1,), (2,), (3,)),
            ((0, 2), (1, 3)),
            ((0, 1, 2, 3),),
        ]

    def test_budget(self):
        with pytest.raises(BudgetError):
            sc.all_congruences(empty_set_algebra(9))

    def test_from_pair_set_rejects_non_equivalence(self, set3):
        with pytest.raises(ValueError):
            sc.Congruence.from_pair_set(set3, {(0, 0), (1, 1), (2, 2), (0, 1)})

    @pytest.mark.parametrize("pair", [(0, 5), (-1, 0), (3, 3)])
    def test_from_pair_set_rejects_pairs_out_of_range(self, set3, pair):
        diagonal = {(x, x) for x in set3.carrier}
        with pytest.raises(ValueError, match=rf"pair \({pair[0]},{pair[1]}\) out of range"):
            sc.Congruence.from_pair_set(set3, diagonal | {pair})

    @pytest.mark.parametrize("partition", [(0, 1, -1), (0, 0, -1), (-3, 1, 2)])
    def test_labels_outside_carrier_rejected(self, set3, partition):
        with pytest.raises(ValueError, match="smallest-member form"):
            sc.Congruence(set3, partition)


class TestCongruenceOracle:
    @pytest.mark.parametrize(
        "name",
        ["set1", "set2", "set3", "bool2", "monoid01", "groupZ2",
         "ringZ2", "ringZ4", "bool4", "ringZ2xZ2"],
    )
    def test_matches_partition_filter(self, name):
        a = load_algebra(name)
        expected = {
            p for p in all_partitions(a.size) if compatible_partition(a, p)
        }
        got = {c.partition for c in sc.all_congruences(a)}
        assert got == expected

    @pytest.mark.parametrize("k", range(1, 9))
    def test_chain_lattice_congruences_are_interval_partitions(self, k):
        # a partition of a chain lattice is a congruence iff its blocks are
        # intervals: the 2^(k-1) choices of where to cut the chain
        sig = sc.Signature((("bot", 0), ("meet", 2), ("join", 2)))
        pairs = [(x, y) for x in range(k) for y in range(k)]
        tables = ((0,), tuple(min(p) for p in pairs), tuple(max(p) for p in pairs))
        a = sc.FiniteAlgebra(sig, k, tables)
        intervals = set()
        for cuts in itertools.product((False, True), repeat=k - 1):
            labels = [0]
            for x, cut in enumerate(cuts, start=1):
                labels.append(x if cut else labels[-1])
            intervals.add(tuple(labels))
        got = [c.partition for c in sc.all_congruences(a)]
        assert len(got) == 2 ** (k - 1)
        assert set(got) == intervals

    def test_set4_partition_filter(self):
        a = empty_set_algebra(4)
        assert len(sc.all_congruences(a)) == 15  # Bell(4)


class TestStructuralProperties:
    def test_preimage_of_congruence_is_congruence(self, ring_z4, ring_z2):
        rng = random.Random(7)
        f = sc.Homomorphism(ring_z4, ring_z2, (0, 1, 0, 1))
        instances = [(f, c) for c in sc.all_congruences(ring_z2)]
        for sa in range(1, 4):
            for sb in range(1, 4):
                a, b = empty_set_algebra(sa), empty_set_algebra(sb)
                maps = list(all_maps(a, b))
                for g in rng.sample(maps, min(4, len(maps))):
                    for c in sc.all_congruences(b):
                        instances.append((g, c))
        for hom, theta in instances:
            pairs = {
                (x, y)
                for x in hom.domain.carrier
                for y in hom.domain.carrier
                if theta.relates(hom.map[x], hom.map[y])
            }
            # constructor validates compatibility
            sc.Congruence.from_pair_set(hom.domain, pairs)

    def test_homomorphisms_preserve_constants_subalgebra(
        self, ring_z4, ring_z2, bool4, bool2, monoid01
    ):
        cases = [
            sc.Homomorphism(ring_z4, ring_z2, (0, 1, 0, 1)),
            sc.Homomorphism(bool4, bool2, (0, 0, 1, 1)),
        ]
        cases.extend(all_maps(monoid01, monoid01))
        for f in cases:
            ea = sc.constants_subalgebra(f.domain)
            eb = sc.constants_subalgebra(f.codomain)
            assert {f.map[x] for x in ea} <= set(eb)


@pytest.mark.parametrize("build,message", [
    (lambda: sc.Signature((("", 2),)), "empty symbol name"),
    (lambda: sc.Signature((("f", 1), ("f", 2))), "duplicate symbol 'f'"),
    (lambda: sc.Signature((("f", -1),)), "negative arity for 'f'"),
    (lambda: sc.FiniteAlgebra(sc.Signature(()), 0, ()), "carrier must have at least one element"),
    (lambda: sc.FiniteAlgebra(sc.Signature((("c", 0),)), 2, ()), "one table per symbol required"),
    (lambda: sc.FiniteAlgebra(sc.Signature((("f", 1),)), 2, ((0,),)),
     "table for f/1 has 1 entries, expected 2"),
    (lambda: sc.compose_homomorphisms(
        sc.identity_homomorphism(empty_set_algebra(2)),
        sc.identity_homomorphism(empty_set_algebra(3))),
     "homomorphisms are not composable"),
    (lambda: sc.direct_power(empty_set_algebra(2), 0), "power must be positive"),
], ids=["empty-name", "duplicate-symbol", "negative-arity", "size-0", "table-count",
        "table-length", "compose-homomorphisms", "direct-power-0"])
def test_public_edge_checks(build, message):
    with pytest.raises(ValueError) as raised:
        build()
    assert str(raised.value) == message
