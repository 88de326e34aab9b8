import pytest

import starcheck as sc
from starcheck.checkers import SymmetryWitness, Verdict

from conftest import all_relations, empty_set_algebra


def relation_as_graph(r: sc.Relation):
    """Present a non-empty relation by its pair algebra and projections."""
    ps = sorted(r.pairs())
    x = r.source
    if x.signature.is_empty:
        g = empty_set_algebra(len(ps), name="pairs")
    else:
        tables = []
        pindex = {p: i for i, p in enumerate(ps)}
        import itertools

        from starcheck.algebra import _encode

        for sym, arity, table in x.operations():
            entries = []
            for combo in itertools.product(ps, repeat=arity):
                a = table[_encode((p[0] for p in combo), x.size)]
                b = table[_encode((p[1] for p in combo), x.size)]
                entries.append(pindex[(a, b)])
            tables.append(tuple(entries))
        g = sc.FiniteAlgebra(x.signature, len(ps), tuple(tables), "pairs")
    g0 = sc.Homomorphism(g, x, tuple(p[0] for p in ps))
    g1 = sc.Homomorphism(g, x, tuple(p[1] for p in ps))
    return g0, g1


class TestLeftStarSymmetry:
    def test_total_context_is_plain_symmetry(self, set2):
        r = sc.Relation.from_pairs(set2, set2, [(0, 1)])
        v = sc.is_left_star_symmetric(sc.Total(), r)
        assert not v.holds and v.witness == (0, 1)

    def test_monoid_counterexample(self, monoid01):
        r = sc.Relation.from_pairs(monoid01, monoid01, [(0, 0), (0, 1), (1, 1)])
        v = sc.is_left_star_symmetric(sc.Pointed(0), r)
        assert not v.holds and v.witness == (0, 1)

    def test_diagonal_always_symmetric(self, set3, monoid01):
        for a in (set3, monoid01):
            for ctx in [sc.Total(), sc.Pointed(0), sc.ProtoPointed()]:
                assert sc.is_left_star_symmetric(ctx, sc.diagonal(a)).holds

    def test_total_matches_predicate_exhaustively(self):
        for n in (1, 2, 3):
            a = empty_set_algebra(n)
            for r in all_relations(a):
                v = sc.is_left_star_symmetric(sc.Total(), r)
                assert v.holds == sc.relation_predicates(r).symmetric

    def test_witness_recheckable(self, monoid01):
        r = sc.Relation.from_pairs(monoid01, monoid01, [(0, 0), (0, 1), (1, 1)])
        v = sc.is_left_star_symmetric(sc.Pointed(0), r)
        a, b = v.witness
        assert (a, b) in r and (b, a) not in r
        assert a in sc.null_class(sc.Pointed(0), monoid01).elements


class TestStarSymmetry:
    def test_opposite_side_witness(self, set2):
        r = sc.Relation.from_pairs(set2, set2, [(1, 0), (1, 1), (0, 0)])
        v = sc.is_star_symmetric(sc.Pointed(0), r)
        assert not v.holds and v.witness == (0, 1) and v.from_opposite

    def test_full_relation_everywhere(self, set3, monoid01, bool4):
        for a, ctx in [
            (set3, sc.Total()),
            (set3, sc.Pointed(0)),
            (monoid01, sc.Pointed(0)),
            (bool4, sc.ProtoPointed()),
        ]:
            assert sc.is_star_symmetric(ctx, sc.full_relation(a)).holds

    def test_definition_unfolding_exhaustive(self):
        # star-symmetric iff the star of the relation equals the star of
        # its opposite
        for n in (1, 2, 3):
            a = empty_set_algebra(n)
            contexts = [sc.Total(), sc.ProtoPointed()]
            contexts += [sc.Pointed(b) for b in range(n)]
            for ctx in contexts:
                for r in all_relations(a):
                    v = sc.is_star_symmetric(ctx, r)
                    unfolded = sc.star(ctx, r) == sc.star(ctx, sc.opposite(r))
                    assert v.holds == unfolded


class TestStarPermutes:
    def test_same_relation_trivially_permutes(self, set3):
        for mask in range(0, 1 << 9, 19):
            r = sc.Relation(set3, set3, mask)
            assert sc.check_star_permutes(sc.Pointed(0), r, r).holds

    def test_partition_pair_example(self, set3):
        r = sc.congruence_relation(sc.congruence_generated(set3, [(0, 1)]))
        s = sc.congruence_relation(sc.congruence_generated(set3, [(0, 2)]))
        v = sc.check_star_permutes(sc.Pointed(0), r, s)
        assert v.holds
        expected = {(0, 0), (0, 1), (0, 2)}
        assert set(v.via_second_star.pairs()) == expected
        assert set(v.via_first_star.pairs()) == expected

    def test_z4_total_congruences_permute(self, ring_z4):
        congs = sc.all_congruences(ring_z4)
        full = sc.congruence_relation(congs[-1])
        mid = sc.congruence_relation(congs[1])
        v = sc.check_star_permutes(sc.Total(), mid, full)
        assert v.holds
        assert v.via_second_star == sc.full_relation(ring_z4)

    def test_failing_pair_and_swap(self, set3):
        r = sc.congruence_relation(sc.congruence_generated(set3, [(1, 2)]))
        s = sc.congruence_relation(sc.congruence_generated(set3, [(0, 1)]))
        v = sc.check_star_permutes(sc.Pointed(0), r, s)
        assert not v.holds and v.witness == (0, 2)
        swapped = sc.check_star_permutes(sc.Pointed(0), s, r)
        assert not swapped.holds and swapped.witness == (0, 2)
        assert swapped.via_second_star == v.via_first_star
        assert swapped.via_first_star == v.via_second_star


class TestGraphChecker:
    def test_equal_legs_pass_with_identity_sigma(self, set3):
        ident = sc.identity_homomorphism(set3)
        v = sc.graph_left_star_symmetric(sc.Pointed(0), ident, ident)
        assert v.verdict is Verdict.PASS
        assert v.sigma == ((0, 0),)

    def test_jointly_monic_graphs_match_relation_check(self):
        for n in (2, 3):
            a = empty_set_algebra(n)
            for ctx in [sc.Total(), sc.Pointed(0)]:
                for r in all_relations(a):
                    if r.mask == 0:
                        continue
                    g0, g1 = relation_as_graph(r)
                    gv = sc.graph_left_star_symmetric(ctx, g0, g1)
                    rv = sc.is_left_star_symmetric(ctx, r)
                    assert (gv.verdict is Verdict.PASS) == rv.holds
                    if gv.verdict is Verdict.PASS:
                        # sigma is the pair swap
                        ps = sorted(r.pairs())
                        for t, u in gv.sigma:
                            assert ps[u] == ps[t][::-1]

    def test_monoid_relation_as_graph_fails(self, monoid01):
        r = sc.Relation.from_pairs(monoid01, monoid01, [(0, 0), (0, 1), (1, 1)])
        g0, g1 = relation_as_graph(r)
        v = sc.graph_left_star_symmetric(sc.Pointed(0), g0, g1)
        assert v.verdict is Verdict.FAIL
        assert v.blocked_element == sorted(r.pairs()).index((0, 1))

    def test_graph_soundness_for_relations(self, monoid01, bool2):
        # a passing graph check forces the image relation to pass
        for a in (monoid01, bool2):
            for r in sc.enumerate_reflexive_compatible(a).relations:
                g0, g1 = relation_as_graph(r)
                for ctx in [sc.Total(), sc.ProtoPointed()]:
                    gv = sc.graph_left_star_symmetric(ctx, g0, g1)
                    if gv.verdict is Verdict.PASS:
                        image = sc.graph_image(g0, g1)
                        assert sc.is_left_star_symmetric(ctx, image).holds

    def test_no_sigma_among_the_candidates_fails(self):
        # every t has candidates, but t = 0 is fixed by f and its
        # candidates 1 and 2 are swapped by f, so no candidate map is a
        # homomorphism: FAIL after the search, with no blocked element
        sig = sc.Signature((("f", 1),))
        d = sc.FiniteAlgebra(sig, 3, ((0, 2, 1),))
        x = sc.FiniteAlgebra(sig, 2, ((0, 1),))
        g0 = sc.Homomorphism(d, x, (0, 1, 1))
        g1 = sc.Homomorphism(d, x, (1, 0, 0))
        v = sc.graph_left_star_symmetric(sc.Total(), g0, g1)
        assert v.verdict is Verdict.FAIL
        assert (v.sigma, v.blocked_element, v.nodes) == (None, None, 2)

    def test_budget_gives_inconclusive(self, set3):
        ident = sc.identity_homomorphism(set3)
        v = sc.graph_left_star_symmetric(sc.Total(), ident, ident, node_budget=1)
        assert v.verdict is Verdict.INCONCLUSIVE

    def test_node_budget_is_named(self, set3):
        ident = sc.identity_homomorphism(set3)
        v = sc.graph_left_star_symmetric(sc.Total(), ident, ident, node_budget=2)
        assert v.budget == "sigma-nodes 2/2"

    @pytest.mark.parametrize("budget", [0, -5])
    def test_node_budget_below_one_raises(self, set3, budget):
        ident = sc.identity_homomorphism(set3)
        with pytest.raises(ValueError, match="sigma node budget must be positive"):
            sc.graph_left_star_symmetric(sc.Total(), ident, ident, node_budget=budget)

    def test_missing_leg_is_inconclusive(self, set3):
        ident = sc.identity_homomorphism(set3)
        for g0, g1 in [(None, None), (ident, None), (None, ident)]:
            v = sc.graph_left_star_symmetric(sc.Pointed(0), g0, g1)
            assert v.verdict is Verdict.INCONCLUSIVE
            assert v.budget == "clone-cells"


class TestEnumeration:
    def test_empty_signature_two_elements(self, set2):
        enum = sc.enumerate_reflexive_compatible(set2)
        got = {frozenset(r.pairs()) for r in enum.relations}
        expected = {
            frozenset({(0, 0), (1, 1)}),
            frozenset({(0, 0), (1, 1), (0, 1)}),
            frozenset({(0, 0), (1, 1), (1, 0)}),
            frozenset({(0, 0), (0, 1), (1, 0), (1, 1)}),
        }
        assert got == expected and not enum.truncated

    def test_brute_force_oracle(self, set2, bool2, monoid01, heyt2):
        for a in (set2, bool2, monoid01, heyt2):
            expected = {
                r.mask
                for r in all_relations(a)
                if sc.relation_predicates(r).reflexive and r.verify_compatible()
            }
            got = {r.mask for r in sc.enumerate_reflexive_compatible(a).relations}
            assert got == expected

    def test_bool2_only_diagonal_and_full(self, bool2):
        enum = sc.enumerate_reflexive_compatible(bool2)
        assert [set(r.pairs()) for r in enum.relations] == [
            {(0, 0), (1, 1)},
            {(0, 0), (0, 1), (1, 0), (1, 1)},
        ]

    def test_size_one(self, set1):
        assert len(sc.enumerate_reflexive_compatible(set1).relations) == 1

    def test_truncation_flag(self, set2):
        enum = sc.enumerate_reflexive_compatible(set2, budget=2)
        assert enum.truncated and len(enum.relations) <= 2

    def test_truncation_boundary(self, set3):
        # set3 has exactly 64 reflexive relations
        enum = sc.enumerate_reflexive_compatible(set3, budget=64)
        assert not enum.truncated and len(enum.relations) == 64
        enum = sc.enumerate_reflexive_compatible(set3, budget=63)
        assert enum.truncated and len(enum.relations) == 63

    @pytest.mark.parametrize("budget", [0, -1])
    def test_budget_below_one_raises(self, set2, budget):
        # at most `budget` relations cannot hold the diagonal
        with pytest.raises(ValueError, match="relation budget must be positive"):
            sc.enumerate_reflexive_compatible(set2, budget=budget)
        with pytest.raises(ValueError, match="relation budget must be positive"):
            sc.audit_algebra(sc.Total(), set2, max_relations=budget)

    def test_canonical_order(self, monoid01):
        masks = [r.mask for r in sc.enumerate_reflexive_compatible(monoid01).relations]
        assert masks == sorted(masks)


class TestAudit:
    def test_bool4_proto_all_pass(self, bool4):
        report = sc.audit_algebra(sc.ProtoPointed(), bool4)
        assert report.passed and not report.truncated
        assert [c.verdict for c in report.conditions] == [Verdict.PASS] * 4

    def test_monoid_pointed_fails_with_witness(self, monoid01):
        report = sc.audit_algebra(sc.Pointed(0), monoid01)
        assert report.condition("congruence-pairs-star-permute").verdict is Verdict.PASS
        cond3 = report.condition("reflexive-left-star-symmetric")
        cond4 = report.condition("reflexive-star-symmetric")
        assert cond3.verdict is Verdict.FAIL and cond4.verdict is Verdict.FAIL
        w = cond3.witnesses[0]
        assert set(w.relation.pairs()) == {(0, 0), (0, 1), (1, 1)}
        assert w.pair == (0, 1)

    def test_size_one_everything_passes(self, set1):
        for ctx in [sc.Total(), sc.Pointed(0), sc.ProtoPointed()]:
            assert sc.audit_algebra(ctx, set1).passed

    def test_witnesses_recheck_as_failures(self, monoid01, set3):
        for a, ctx in [(monoid01, sc.Pointed(0)), (set3, sc.Pointed(0))]:
            report = sc.audit_algebra(ctx, a)
            for cond in report.conditions:
                for w in cond.witnesses:
                    if isinstance(w, SymmetryWitness):
                        if cond.key.endswith("left-star-symmetric"):
                            assert not sc.is_left_star_symmetric(ctx, w.relation).holds
                        else:
                            assert not sc.is_star_symmetric(ctx, w.relation).holds
                    else:
                        rel_r = sc.congruence_relation(w.first)
                        rel_s = sc.congruence_relation(w.second)
                        assert not sc.check_star_permutes(ctx, rel_r, rel_s).holds

    def test_audit_makes_no_public_permutability_calls(self, monkeypatch, monoid01, set3):
        # suites 1-2 read stacked composites; the public checker stays the
        # oracle of the differential tests
        from starcheck import checkers

        calls = []

        def counting(*args):
            calls.append(args)
            return sc.check_star_permutes(*args)

        monkeypatch.setattr(checkers, "check_star_permutes", counting)
        for a in (monoid01, set3):
            report = sc.audit_algebra(sc.Pointed(0), a)
            assert report.condition("congruence-pairs-star-permute").examined > 1
        assert calls == []

    def test_set3_pointed_fails_permutability(self, set3):
        report = sc.audit_algebra(sc.Pointed(0), set3)
        assert report.condition("congruence-pairs-star-permute").verdict is Verdict.FAIL
        assert report.condition("equivalence-pairs-star-permute").verdict is Verdict.FAIL

    def test_condition4_implies_condition3(
        self, bool2, bool4, heyt2, monoid01, group_z2, set2, set3
    ):
        for a in (bool2, bool4, heyt2, monoid01, group_z2, set2, set3):
            for ctx in [sc.Total(), sc.ProtoPointed()]:
                report = sc.audit_algebra(ctx, a)
                if report.condition("reflexive-star-symmetric").verdict is Verdict.PASS:
                    assert (
                        report.condition("reflexive-left-star-symmetric").verdict
                        is Verdict.PASS
                    )

    def test_truncated_audit_is_inconclusive_not_pass(self, set3):
        report = sc.audit_algebra(sc.Total(), set3, max_relations=3)
        assert report.truncated
        cond3 = report.condition("reflexive-left-star-symmetric")
        assert cond3.verdict in (Verdict.INCONCLUSIVE, Verdict.FAIL)

    def test_counts_within_budget(self, set3):
        report = sc.audit_algebra(sc.Total(), set3, max_relations=3)
        assert report.condition("reflexive-star-symmetric").examined <= 3


class TestTotalContextCollapse:
    def test_left_star_symmetric_iff_symmetric_and_star_identity(self):
        for n in (1, 2, 3):
            a = empty_set_algebra(n)
            for r in all_relations(a):
                assert (
                    sc.is_left_star_symmetric(sc.Total(), r).holds
                    == sc.relation_predicates(r).symmetric
                )
                assert sc.star(sc.Total(), r) == r


def _square(n, mask=0):
    return sc.Relation(empty_set_algebra(n), empty_set_algebra(n), mask)


@pytest.mark.parametrize("build,message", [
    (lambda: sc.is_left_star_symmetric(
        sc.Total(), sc.Relation(empty_set_algebra(2), empty_set_algebra(3), 1)),
     "need a square relation"),
    (lambda: sc.is_star_symmetric(
        sc.Total(), sc.Relation(empty_set_algebra(2), empty_set_algebra(3), 1)),
     "need a square relation"),
    (lambda: sc.check_star_permutes(sc.Total(), _square(2), _square(3)),
     "need two square relations on the same carrier"),
], ids=["left-not-square", "star-symmetric-not-square", "permutes-two-carriers"])
def test_public_edge_checks(build, message):
    with pytest.raises(ValueError) as raised:
        build()
    assert str(raised.value) == message
