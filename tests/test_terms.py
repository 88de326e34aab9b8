import pytest

import starcheck as sc
from starcheck.errors import BudgetError
from starcheck.terms import DEFAULT_CLONE_BUDGET, SearchStatus

from conftest import load_algebra, ring_algebra


def ring_model_limit(budget: int) -> int:
    """The most elements whose induced ring tables, two binary and one
    unary, fit in ``budget`` cells, by counting up."""
    m = 0
    while 2 * (m + 1) ** 2 + (m + 1) <= budget:
        m += 1
    return m


class TestFreeModels:
    def test_monoid_binary_clone(self, monoid01):
        model = sc.free_term_operations(monoid01, 2)
        assert model.complete and len(model) == 4
        assert {op.table for op in model} == {
            (0, 0, 1, 1),  # first projection
            (0, 1, 0, 1),  # second projection
            (0, 0, 0, 0),  # constant
            (0, 1, 1, 1),  # join
        }
        assert [op.text for op in model] == ["x", "y", "zero", "max(x, y)"]

    def test_z2_unary_clone(self, ring_z2):
        model = sc.free_term_operations(ring_z2, 1)
        assert model.complete and len(model) == 4
        assert {op.table for op in model} == {(0, 1), (0, 0), (1, 1), (1, 0)}

    def test_empty_signature_single_projection(self, set3):
        model = sc.free_term_operations(set3, 1)
        assert model.complete and len(model) == 1
        assert model.elements[0].table == (0, 1, 2)

    def test_elements_are_checked_when_read(self, ring_z2):
        # the model keeps (table, term) pairs: size and index read tables
        # only, and each tree is checked against its table once elements is
        pairs = [((0, 1), sc.Var(0)), ((1, 1), sc.App("zero", ()))]
        model = sc.FreeAlgebraModel(ring_z2, 1, pairs, True)
        assert len(model) == 2 and model.index == {(0, 1): 0, (1, 1): 1}
        with pytest.raises(ValueError, match="does not evaluate"):
            model.elements

    def test_tables_pairwise_distinct_and_coherent(self, bool2, group_z2):
        for a, n in [(bool2, 2), (group_z2, 3)]:
            model = sc.free_term_operations(a, n)
            tables = [op.table for op in model]
            assert len(set(tables)) == len(tables)
            for op in model:
                assert sc.term_table(op.term, a, n) == op.table

    def test_projections_and_constants_present(self, ring_z4):
        model = sc.free_term_operations(ring_z4, 2, budget=4096)
        assert model.index.get(tuple(i // 4 for i in range(16))) == 0
        assert model.index.get(tuple(i % 4 for i in range(16))) == 1
        assert (0,) * 16 in model.index
        assert (1,) * 16 in model.index

    def test_as_algebra_requires_completeness(self, ring_z4):
        partial = sc.free_term_operations(ring_z4, 2, budget=128)
        assert not partial.complete
        with pytest.raises(ValueError):
            partial.as_algebra()

    def test_table_budget_precondition(self, ring_z4):
        with pytest.raises(BudgetError):
            sc.free_term_operations(ring_z4, 3, budget=32)

    def test_negative_generator_count_rejected(self, ring_z4):
        with pytest.raises(ValueError, match="generator count must be non-negative"):
            sc.free_term_operations(ring_z4, -1)

    @pytest.mark.parametrize("args, message", [
        ((1, 2), r"^expected 3 arguments, got 2$"),
        ((1, 2, 3, 0), r"^expected 3 arguments, got 4$"),
        ((0, 1, 2), r"^arguments \(0, 1, 2\) out of range for size 2$"),
        ((0, -1, 1), r"^arguments \(0, -1, 1\) out of range for size 2$"),
    ])
    def test_term_operation_rejects_bad_arguments(self, group_z2, args, message):
        p = sc.find_maltsev_term(group_z2).term
        assert p(0, 1, 1) == 0
        with pytest.raises(ValueError, match=message):
            p(*args)


class TestTermText:
    def test_variables_and_nesting(self):
        t = sc.App("or", (sc.Var(0), sc.App("not", (sc.Var(1),))))
        assert sc.term_text(t) == "or(x, not(y))"

    def test_nullary_prints_bare(self):
        assert sc.term_text(sc.App("zero", ())) == "zero"

    def test_coherence_enforced(self, bool2):
        with pytest.raises(ValueError):
            sc.TermOperation(bool2, 2, (0, 0, 0, 0), sc.Var(0))


class TestSubtractiveSearch:
    def test_bool2(self, bool2):
        result = sc.find_e_subtractive_terms(bool2)
        assert result.status is SearchStatus.FOUND
        s0, s1 = result.term_for(0), result.term_for(1)
        assert s0.text == "and(x, not(y))" and s0.table == (0, 0, 1, 0)
        assert s1.text == "or(x, not(y))" and s1.table == (1, 0, 1, 1)

    def test_ring_z2(self, ring_z2):
        result = sc.find_e_subtractive_terms(ring_z2)
        assert result.status is SearchStatus.FOUND
        assert result.term_for(0).table == (0, 1, 1, 0)  # x + y
        assert result.term_for(1).table == (1, 0, 0, 1)  # x + y + 1

    def test_monoid_absent_over_complete_clone(self, monoid01):
        result = sc.find_e_subtractive_terms(monoid01)
        assert result.status is SearchStatus.ABSENT
        assert result.complete and result.clone_size == 4
        assert result.missing == (0,)

    def test_budget_exhaustion_is_inconclusive(self, ring_z4):
        # a budget below one 16-cell table stops the search at seeding
        for budget, clone_size in ((64, 4), (10, 0)):
            result = sc.find_e_subtractive_terms(ring_z4, budget=budget)
            assert result.status is SearchStatus.INCONCLUSIVE
            assert not result.complete and result.clone_size == clone_size

    @pytest.mark.parametrize("budget", [0, -5])
    def test_non_positive_budget_rejected(self, ring_z4, budget):
        # a positive budget below one table is INCONCLUSIVE (above); a
        # non-positive one is not a budget at all
        with pytest.raises(ValueError, match="clone budget must be positive"):
            sc.find_e_subtractive_terms(ring_z4, budget=budget)

    def test_identities_hold_pointwise(self, bool4, ring_z2xz2):
        for a in (bool4, ring_z2xz2):
            result = sc.find_e_subtractive_terms(a)
            assert result.status is SearchStatus.FOUND
            for e, op in result.terms:
                for x in a.carrier:
                    assert op(x, x) == e
                    assert op(x, e) == x

    def test_explicit_targets(self, monoid01):
        result = sc.find_e_subtractive_terms(monoid01, elements=(0,))
        assert result.status is SearchStatus.ABSENT

    def test_no_constants_rejected(self, set3):
        with pytest.raises(ValueError, match="constants"):
            sc.find_e_subtractive_terms(set3)

    @pytest.mark.parametrize("kwargs", [{}, {"budget": 10}])
    def test_empty_targets_rejected(self, ring_z4, kwargs):
        # no target would make FOUND vacuous: a verdict without a term
        with pytest.raises(ValueError, match="no target elements"):
            sc.find_e_subtractive_terms(ring_z4, elements=(), **kwargs)

    def test_unsound_witness_is_an_internal_error(self, monkeypatch, bool2):
        # a search that accepts every table would report the projection x;
        # the identity check on the whole carrier must refuse it
        from starcheck import terms

        monkeypatch.setattr(terms, "_subtractive_table", lambda table, e, size: True)
        with pytest.raises(RuntimeError, match="fails"):
            sc.find_e_subtractive_terms(bool2)

    def test_incoherent_witness_tree_is_an_internal_error(
        self, incoherent_clone, bool2
    ):
        # the witness tables are right, so the identities hold on them; only
        # re-evaluating the tree shows that it is x, not and(x, not(y))
        with pytest.raises(RuntimeError, match="does not evaluate"):
            sc.find_e_subtractive_terms(bool2)

    def test_deterministic(self, ring_z4):
        first = sc.find_e_subtractive_terms(ring_z4)
        second = sc.find_e_subtractive_terms(ring_z4)
        assert [(e, op.text) for e, op in first.terms] == [
            (e, op.text) for e, op in second.terms
        ]


class TestMaltsevSearch:
    def test_group_z2(self, group_z2):
        result = sc.find_maltsev_term(group_z2)
        assert result.status is SearchStatus.FOUND
        xor3 = tuple((a + b + c) % 2 for a in range(2) for b in range(2) for c in range(2))
        assert result.term.table == xor3

    def test_semilattice_absent(self, semilattice01):
        result = sc.find_maltsev_term(semilattice01)
        assert result.status is SearchStatus.ABSENT
        assert result.complete and result.clone_size == 7

    def test_unsound_witness_is_an_internal_error(self, monkeypatch, group_z2):
        # a search that accepts every table would report the projection x;
        # the identity check on the whole carrier must refuse it
        from starcheck import terms

        monkeypatch.setattr(terms, "_maltsev_table", lambda table, n: True)
        with pytest.raises(RuntimeError, match="fails"):
            sc.find_maltsev_term(group_z2)

    def test_incoherent_witness_tree_is_an_internal_error(
        self, incoherent_clone, group_z2
    ):
        with pytest.raises(RuntimeError, match="does not evaluate"):
            sc.find_maltsev_term(group_z2)

    def test_monoid_absent(self, monoid01):
        result = sc.find_maltsev_term(monoid01)
        assert result.status is SearchStatus.ABSENT
        assert result.clone_size == 8

    @pytest.mark.parametrize("budget", [0, -5])
    def test_non_positive_budget_rejected(self, group_z2, budget):
        with pytest.raises(ValueError, match="clone budget must be positive"):
            sc.find_maltsev_term(group_z2, budget=budget)

    def test_size_one_projection_qualifies(self, set1):
        result = sc.find_maltsev_term(set1)
        assert result.status is SearchStatus.FOUND
        assert isinstance(result.term.term, sc.Var)


class TestSubstitutionGraph:
    def test_z2_substitutions(self, ring_z2):
        cg = sc.substitution_graph(ring_z2, 0)
        xy = cg.binary_model.index[(0, 1, 1, 0)]  # table of x + y
        x_unary = cg.unary_model.index[(0, 1)]
        zero_unary = cg.unary_model.index[(0, 0)]
        assert cg.g0.map[xy] == x_unary      # substituting y := 0
        assert cg.g1.map[xy] == zero_unary   # substituting y := x

    def test_reflexivity_via_delta(self, ring_z2, monoid01):
        for a in (ring_z2, monoid01):
            cg = sc.substitution_graph(a, 0)
            n = len(cg.unary_model)
            assert [cg.g0.map[cg.delta.map[i]] for i in range(n)] == list(range(n))
            assert [cg.g1.map[cg.delta.map[i]] for i in range(n)] == list(range(n))

    def test_monoid_realizes_the_obstruction_pair(self, monoid01):
        cg = sc.substitution_graph(monoid01, 0)
        y_elt = cg.binary_model.index[(0, 1, 0, 1)]
        zero_unary = cg.unary_model.index[(0, 0)]
        x_unary = cg.unary_model.index[(0, 1)]
        assert (cg.g0.map[y_elt], cg.g1.map[y_elt]) == (zero_unary, x_unary)

    def test_legs_are_checked_homomorphisms(self, bool2):
        cg = sc.substitution_graph(bool2, 1)
        for f in (cg.g0, cg.g1, cg.delta):
            assert isinstance(f, sc.Homomorphism)

    def test_graph_check_mirrors_subtractivity(self, monoid01):
        proto = sc.ProtoPointed()
        passing = {  # algebra: (constant elements, sizes of F(2) and F(1))
            "bool2": ({0, 1}, (16, 4)),
            "bool4": ({0, 3}, (16, 4)),
            "groupZ2": ({0}, (4, 2)),
            "heyt2": ({0, 1}, (16, 4)),
            "ringZ2": ({0, 1}, (16, 4)),
            "ringZ2xZ2": ({0, 3}, (16, 4)),
        }
        for name, (constants, sizes) in passing.items():
            a = load_algebra(name)
            assert sc.constants_subalgebra(a) == constants
            for e in sorted(constants):
                cg = sc.substitution_graph(a, e)
                assert cg.budget is None
                assert (len(cg.binary_model), len(cg.unary_model)) == sizes
                v = sc.graph_left_star_symmetric(proto, cg.g0, cg.g1)
                assert v.verdict is sc.Verdict.PASS and v.budget is None
                # soundness: a passing (non-monic) graph has a passing image
                image = sc.graph_image(cg.g0, cg.g1)
                assert sc.is_left_star_symmetric(proto, image).holds
        cg = sc.substitution_graph(monoid01, 0)
        assert (len(cg.binary_model), len(cg.unary_model)) == (4, 2)
        v = sc.graph_left_star_symmetric(proto, cg.g0, cg.g1)
        assert v.verdict is sc.Verdict.FAIL and v.budget is None
        blocked = cg.binary_model.elements[v.blocked_element]
        assert blocked.table == (0, 1, 0, 1)  # the second generator

    def test_element_must_be_generated_by_constants(self, monoid01):
        with pytest.raises(ValueError):
            sc.substitution_graph(monoid01, 1)

    @pytest.mark.parametrize("n", [3, 4])
    def test_unmaterializable_free_model_is_inconclusive(self, n):
        # F(2) of Z3 has 3^9 elements, whose induced tables need ~775M cells
        m = ring_model_limit(DEFAULT_CLONE_BUDGET)
        cg = sc.substitution_graph(ring_algebra(n), 0)
        assert not cg.binary_model.complete
        assert len(cg.binary_model) <= m
        assert (cg.g0, cg.g1, cg.delta) == (None, None, None)
        assert cg.budget == f"clone-cells F(2) {len(cg.binary_model)}/{m}"
        v = sc.graph_left_star_symmetric(sc.ProtoPointed(), cg.g0, cg.g1)
        assert v.verdict is sc.Verdict.INCONCLUSIVE
        assert v.budget == "clone-cells"

    def test_small_budget_is_inconclusive_not_an_error(self, ring_z2):
        # 50 cells hold 12 tables of F(2) but the induced tables of 4 elements
        cg = sc.substitution_graph(ring_z2, 0, budget=50)
        assert len(cg.binary_model) == ring_model_limit(50) == 4
        assert cg.budget == "clone-cells F(2) 4/4"
        # F(1) is not built once F(2) stopped short
        assert len(cg.unary_model) == 0 and not cg.unary_model.complete
        v = sc.graph_left_star_symmetric(sc.ProtoPointed(), cg.g0, cg.g1)
        assert v.verdict is sc.Verdict.INCONCLUSIVE
        assert v.budget == "clone-cells"

    def test_budget_below_one_element_gives_empty_models(self, ring_z2):
        cg = sc.substitution_graph(ring_z2, 0, budget=2)
        assert len(cg.binary_model) == len(cg.unary_model) == 0
        assert cg.budget == "clone-cells F(2) 0/0"

    @pytest.mark.parametrize("budget", [0, -1])
    def test_budget_must_be_positive(self, ring_z2, budget):
        with pytest.raises(ValueError, match="must be positive"):
            sc.substitution_graph(ring_z2, 0, budget=budget)


class TestVerifyIdentities:
    def test_subtraction_identities(self, ring_z2):
        result = sc.find_e_subtractive_terms(ring_z2)
        s0 = result.term_for(0)
        v = sc.verify_term_identities(s0, ["s(x,x)=0", "s(x,0)=x"])
        assert v.holds

    def test_failing_assignment_reported(self, monoid01):
        const0 = sc.TermOperation(
            monoid01, 2, (0, 0, 0, 0), sc.App("zero", ())
        )
        v = sc.verify_term_identities(const0, ["s(x,0)=x"])
        assert not v.holds
        assert v.identity == "s(x,0)=x"
        assert v.assignment == (("x", 1),)

    def test_tautology(self, bool2):
        t = sc.TermOperation(bool2, 2, (0, 0, 0, 1), sc.App("and", (sc.Var(0), sc.Var(1))))
        assert sc.verify_term_identities(t, ["s(x,y)=s(x,y)"]).holds

    def test_signature_symbols_usable(self, bool2):
        t = sc.TermOperation(bool2, 1, (1, 0), sc.App("not", (sc.Var(0),)))
        v = sc.verify_term_identities(t, ["s(s(x))=x", "s(x)=not(x)"])
        assert v.holds

    def test_malformed_identities(self, bool2):
        t = sc.TermOperation(bool2, 1, (1, 0), sc.App("not", (sc.Var(0),)))
        for bad in ["s(x)", "s(x)=x=x", "s(x)=frob(x)", "s(x,y)=x", "s(x)=9",
                    "s(x)=x!", "s(x)=\uff10"]:
            with pytest.raises(ValueError):
                sc.verify_term_identities(t, [bad])

    def test_operation_names_follow_the_document_rule(self):
        # identities read names as algebra documents do, so m+ is one name
        a = sc.parse_algebra("algebra right\nsize 2\nop m+/2 = [0 1 0 1]\n")
        t = sc.TermOperation(a, 2, (0, 0, 1, 1), sc.App("m+", (sc.Var(1), sc.Var(0))))
        assert sc.verify_term_identities(t, ["s(x, y) = m+(y, x)"]).holds


class TestCertificateSoundness:
    def test_positive_certificates_imply_star_symmetry(self, bool2, heyt2):
        proto = sc.ProtoPointed()
        for a in (bool2, heyt2):
            assert sc.find_e_subtractive_terms(a).status is SearchStatus.FOUND
            square = sc.direct_power(a, 2)
            for target in (a, square):
                for r in sc.enumerate_reflexive_compatible(target).relations:
                    assert sc.is_star_symmetric(proto, r).holds

    def test_refutation_soundness_on_monoid(self, monoid01):
        failing = [
            r
            for r in sc.enumerate_reflexive_compatible(monoid01).relations
            if not sc.is_left_star_symmetric(sc.Pointed(0), r).holds
        ]
        assert failing  # the counterexample relation exists
        assert sc.find_e_subtractive_terms(monoid01).status is SearchStatus.ABSENT

    def test_maltsev_coherence(self, group_z2):
        assert sc.find_maltsev_term(group_z2).status is SearchStatus.FOUND
        for r in sc.enumerate_reflexive_compatible(group_z2).relations:
            assert sc.relation_predicates(r).symmetric
        congs = [sc.congruence_relation(c) for c in sc.all_congruences(group_z2)]
        for r in congs:
            for s in congs:
                assert sc.compose(r, s) == sc.compose(s, r)
