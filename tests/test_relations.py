import itertools

import pytest

import starcheck as sc

from conftest import all_maps, all_relations, empty_set_algebra


def naive_compose(r: sc.Relation, s: sc.Relation) -> set:
    # independent composition oracle
    return {
        (x, z)
        for x, y1 in r.pairs()
        for y2, z in s.pairs()
        if y1 == y2
    }


def small_contexts(a: sc.FiniteAlgebra):
    out = [sc.Total(), sc.ProtoPointed()]
    out.extend(sc.Pointed(b) for b in a.carrier)
    return out


class TestCompose:
    def test_diagonal_is_identity(self, set3):
        d = sc.diagonal(set3)
        for mask in range(0, 1 << 9, 37):
            r = sc.Relation(set3, set3, mask)
            assert sc.compose(d, r) == r
            assert sc.compose(r, d) == r

    def test_point_examples(self, set2):
        r = sc.Relation.from_pairs(set2, set2, [(0, 1)])
        s = sc.Relation.from_pairs(set2, set2, [(1, 1)])
        assert set(sc.compose(r, s).pairs()) == {(0, 1)}
        s2 = sc.Relation.from_pairs(set2, set2, [(0, 0)])
        assert sc.compose(r, s2).mask == 0

    def test_against_naive_oracle(self, set2, set3):
        for r in all_relations(set2):
            for s in all_relations(set2):
                assert set(sc.compose(r, s).pairs()) == naive_compose(r, s)
        for mask_r in range(0, 1 << 9, 11):
            for mask_s in range(0, 1 << 9, 13):
                r = sc.Relation(set3, set3, mask_r)
                s = sc.Relation(set3, set3, mask_s)
                assert set(sc.compose(r, s).pairs()) == naive_compose(r, s)

    def test_associativity_exhaustive_size2(self, set2):
        rels = list(all_relations(set2))
        for r, s, t in itertools.product(rels, repeat=3):
            assert sc.compose(sc.compose(r, s), t) == sc.compose(r, sc.compose(s, t))

    def test_carrier_mismatch(self, set2, set3):
        r = sc.Relation(set2, set2, 0)
        s = sc.Relation(set3, set3, 0)
        with pytest.raises(ValueError):
            sc.compose(r, s)


class TestOppositeAndDiagonal:
    def test_opposite_of_diagonal(self, set3):
        assert sc.opposite(sc.diagonal(set3)) == sc.diagonal(set3)

    def test_transposition(self, set2):
        r = sc.Relation.from_pairs(set2, set2, [(0, 1), (1, 1)])
        assert set(sc.opposite(r).pairs()) == {(1, 0), (1, 1)}

    def test_involution(self, set3):
        for mask in range(0, 1 << 9, 7):
            r = sc.Relation(set3, set3, mask)
            assert sc.opposite(sc.opposite(r)) == r

    def test_diagonal_values(self, set1, set3):
        assert set(sc.diagonal(set1).pairs()) == {(0, 0)}
        assert set(sc.diagonal(set3).pairs()) == {(0, 0), (1, 1), (2, 2)}
        preds = sc.relation_predicates(sc.diagonal(set3))
        assert preds.reflexive and preds.symmetric and preds.transitive


class TestKernelPair:
    def test_injective_gives_diagonal(self, set3):
        f = sc.identity_homomorphism(set3)
        assert sc.kernel_pair(f) == sc.diagonal(set3)

    def test_two_point_fibre(self, set3, set2):
        f = sc.Homomorphism(set3, set2, (0, 0, 1))
        assert set(sc.kernel_pair(f).pairs()) == {
            (0, 0), (0, 1), (1, 0), (1, 1), (2, 2)
        }

    def test_mod2(self, ring_z4, ring_z2):
        f = sc.Homomorphism(ring_z4, ring_z2, (0, 1, 0, 1))
        c = sc.Congruence.from_pair_set(ring_z4, set(sc.kernel_pair(f).pairs()))
        assert c.blocks() == ((0, 2), (1, 3))

    def test_equals_inverse_image_of_diagonal(self, set3, set2):
        for f in all_maps(set3, set2):
            assert sc.kernel_pair(f) == sc.inverse_image(f, sc.diagonal(set2))


class TestInverseImage:
    def test_diagonal_gives_kernel_pair(self, set3, set2):
        f = sc.Homomorphism(set3, set2, (0, 1, 1))
        assert sc.inverse_image(f, sc.diagonal(set2)) == sc.kernel_pair(f)

    def test_identity_map(self, set3):
        f = sc.identity_homomorphism(set3)
        for mask in range(0, 1 << 9, 17):
            s = sc.Relation(set3, set3, mask)
            assert sc.inverse_image(f, s) == s

    def test_pointwise_example(self, set3, set2):
        f = sc.Homomorphism(set3, set2, (0, 0, 1))
        s = sc.Relation.from_pairs(set2, set2, [(0, 1), (0, 0), (1, 1)])
        assert set(sc.inverse_image(f, s).pairs()) == {
            (0, 0), (0, 1), (1, 0), (1, 1), (0, 2), (1, 2), (2, 2)
        }

    def test_relation_must_be_square_on_codomain(self, set3, set2):
        f = sc.Homomorphism(set3, set2, (0, 0, 1))
        for s in (sc.Relation(set3, set3, 0), sc.Relation(set2, set3, 0)):
            with pytest.raises(ValueError, match="square on the codomain"):
                sc.inverse_image(f, s)

    def test_compatibility_hint_follows_the_relation(self, monoid01):
        for f in all_maps(monoid01, monoid01):
            for r in sc.enumerate_reflexive_compatible(monoid01).relations:
                pulled = sc.inverse_image(f, r)
                assert pulled._compatible is True and pulled.verify_compatible()
            unknown = sc.Relation(monoid01, monoid01, 0b0110)
            assert sc.inverse_image(f, unknown)._compatible is None


class TestStar:
    def test_total_is_identity(self, set3):
        for mask in range(0, 1 << 9, 5):
            r = sc.Relation(set3, set3, mask)
            assert sc.star(sc.Total(), r) == r

    def test_pointed_filter(self, set3):
        r = sc.Relation.from_pairs(set3, set3, [(0, 0), (0, 1), (1, 1), (2, 0)])
        assert set(sc.star(sc.Pointed(0), r).pairs()) == {(0, 0), (0, 1)}

    def test_proto_product_ring(self, ring_z2xz2, ring_z2):
        f = sc.Homomorphism(ring_z2xz2, ring_z2, (0, 0, 1, 1))
        r = sc.kernel_pair(f)
        assert set(sc.star(sc.ProtoPointed(), r).pairs()) == {
            (0, 0), (0, 1), (3, 2), (3, 3)
        }

    def test_incompatible_input_rejected_over_signature(self, bool2, set2):
        order = sc.Relation.from_pairs(bool2, bool2, [(0, 0), (0, 1), (1, 1)])
        assert not order.compatible
        with pytest.raises(ValueError, match="compatible"):
            sc.star(sc.ProtoPointed(), order)
        # same pair set over the empty signature is fine
        bare = sc.Relation.from_pairs(set2, set2, [(0, 0), (0, 1), (1, 1)])
        assert sc.star(sc.Pointed(0), bare).mask

    def test_idempotent_and_deflationary(self, set3):
        for ctx in small_contexts(set3):
            for mask in range(1 << 9):
                r = sc.Relation(set3, set3, mask)
                st = sc.star(ctx, r)
                assert st.mask & ~r.mask == 0
                assert sc.star(ctx, st) == st


class TestStarViaPullback:
    def test_agreement_exhaustive_size2(self, set2):
        for ctx in small_contexts(set2):
            for r in all_relations(set2):
                assert sc.star(ctx, r) == sc.star_via_pullback(ctx, r)

    def test_agreement_on_compatible_relations(self, bool4, ring_z4, monoid01):
        for a in (bool4, ring_z4, monoid01):
            enum = sc.enumerate_reflexive_compatible(a)
            for ctx in [sc.Total(), sc.ProtoPointed()]:
                for r in enum.relations:
                    assert sc.star(ctx, r) == sc.star_via_pullback(ctx, r)

    def test_empty_relation(self, set3):
        r = sc.Relation(set3, set3, 0)
        assert sc.star_via_pullback(sc.Pointed(0), r).mask == 0

    def test_diagonal_pointed(self, set3):
        d = sc.diagonal(set3)
        assert set(sc.star_via_pullback(sc.Pointed(0), d).pairs()) == {(0, 0)}

    def test_more_than_64_elements(self):
        # the route builds the square of the carrier; no power budget may
        # cap it below the 65^2 pairs of this monounary algebra
        signature = sc.Signature((("c", 0), ("f", 1)))
        a = sc.FiniteAlgebra(signature, 65, ((0,), tuple(x // 2 for x in range(65))))
        for ctx in (sc.Total(), sc.Pointed(0), sc.ProtoPointed()):
            for r in (sc.diagonal(a), sc.full_relation(a)):
                assert sc.star_via_pullback(ctx, r) == sc.star(ctx, r)

    def test_unclosed_pair_set_certified_compatible_raises(self, ring_z4):
        # (1,1) + (1,1) = (2,2) is missing: a false certificate is a fault,
        # never a mask
        r = sc.Relation.from_pairs(ring_z4, ring_z4, [(0, 0), (1, 1)])
        r = sc.Relation(ring_z4, ring_z4, r.mask, compatible=True)
        with pytest.raises(RuntimeError, match="not closed under add"):
            sc.star_via_pullback(sc.ProtoPointed(), r)


class TestStarKernel:
    def test_total_collapses_to_kernel_pair(self, set3, set2):
        f = sc.Homomorphism(set3, set2, (0, 0, 1))
        assert sc.star_kernel(sc.Total(), f) == sc.kernel_pair(f)

    def test_pointed_filter(self, set3, set2):
        f = sc.Homomorphism(set3, set2, (0, 0, 1))
        assert set(sc.star_kernel(sc.Pointed(0), f).pairs()) == {(0, 0), (0, 1)}

    def test_injective_pointed(self, set3):
        f = sc.identity_homomorphism(set3)
        assert set(sc.star_kernel(sc.Pointed(0), f).pairs()) == {(0, 0)}


class TestGraphImage:
    def test_identity_legs_give_diagonal(self, set3):
        ident = sc.identity_homomorphism(set3)
        assert sc.graph_image(ident, ident) == sc.diagonal(set3)

    def test_projections_give_full_relation(self, monoid01):
        square = sc.direct_power(monoid01, 2)
        p0 = sc.Homomorphism(square, monoid01, (0, 0, 1, 1))
        p1 = sc.Homomorphism(square, monoid01, (0, 1, 0, 1))
        assert sc.graph_image(p0, p1) == sc.full_relation(monoid01)

    def test_substitution_graph_image(self, ring_z2):
        cg = sc.substitution_graph(ring_z2, 0)
        r = sc.graph_image(cg.g0, cg.g1)
        expected = set()
        size = ring_z2.size
        for op in cg.binary_model:
            at_zero = tuple(op.table[x * size + 0] for x in range(size))
            at_diag = tuple(op.table[x * size + x] for x in range(size))
            expected.add(
                (cg.unary_model.index[at_zero], cg.unary_model.index[at_diag])
            )
        assert set(r.pairs()) == expected


class TestPredicates:
    def test_reflexive_transitive_not_symmetric(self, set2):
        r = sc.Relation.from_pairs(set2, set2, [(0, 0), (0, 1), (1, 1)])
        preds = sc.relation_predicates(r)
        assert preds.reflexive and preds.transitive and not preds.symmetric

    def test_order_on_bool2_not_compatible(self, bool2):
        order = sc.Relation.from_pairs(bool2, bool2, [(0, 0), (0, 1), (1, 1)])
        assert not sc.relation_predicates(order).compatible

    def test_transitivity_against_naive(self, set3):
        for mask in range(0, 1 << 9, 3):
            r = sc.Relation(set3, set3, mask)
            naive = all(
                (a, c) in r
                for a, b in r.pairs()
                for b2, c in r.pairs()
                if b == b2
            )
            assert sc.relation_predicates(r).transitive == naive


class TestStarCalculusLaws:
    def test_compose_star_size2(self, set2):
        for ctx in small_contexts(set2):
            for s in all_relations(set2):
                star_s = sc.star(ctx, s)
                for r in all_relations(set2):
                    assert sc.star(ctx, sc.compose(s, r)) == sc.compose(star_s, r)

    def test_inverse_image_star_size2(self, set2):
        for ctx in [sc.Total(), sc.ProtoPointed(), sc.Pointed(0), sc.Pointed(1)]:
            for f in all_maps(set2, set2):
                if isinstance(ctx, sc.Pointed) and f.map[ctx.base] != ctx.base:
                    continue
                for s in all_relations(set2):
                    lhs = sc.star(ctx, sc.inverse_image(f, s))
                    rhs = sc.star(ctx, sc.inverse_image(f, sc.star(ctx, s)))
                    assert lhs == rhs

    def test_compose_star_with_constants(self, bool4):
        # a constant in the signature exercises the proto star non-trivially
        ctx = sc.ProtoPointed()
        rels = sc.enumerate_reflexive_compatible(bool4).relations
        for s in rels:
            star_s = sc.star(ctx, s)
            for r in rels:
                assert sc.star(ctx, sc.compose(s, r)) == sc.compose(star_s, r)


class TestCompatibilityFlag:
    def test_trusted_hints_match_recomputation(self, bool4, monoid01):
        for a in (bool4, monoid01):
            for r in sc.enumerate_reflexive_compatible(a).relations:
                assert r.compatible and r.verify_compatible()
                st = sc.star(sc.ProtoPointed(), r)
                assert st.compatible and st.verify_compatible()
                assert sc.opposite(r).verify_compatible()

    def test_empty_signature_everything_compatible(self, set3):
        for mask in range(0, 1 << 9, 23):
            assert sc.Relation(set3, set3, mask).compatible

    def test_signatures_must_match(self, set3, bool2):
        # in both directions, although the bare source has no operation to check
        for source, target in ((set3, bool2), (bool2, set3)):
            r = sc.Relation(source, target, 1)
            with pytest.raises(ValueError, match="share a signature"):
                r.verify_compatible()
            with pytest.raises(ValueError, match="share a signature"):
                r.compatible


def _rect():
    """A relation from a 2-element onto a 3-element set: not square."""
    return sc.Relation(empty_set_algebra(2), empty_set_algebra(3), 1)


@pytest.mark.parametrize("build,message", [
    (lambda: sc.Relation(empty_set_algebra(2), empty_set_algebra(2), 1 << 4),
     "mask out of range for the carriers"),
    (lambda: sc.Relation.from_pairs(empty_set_algebra(2), empty_set_algebra(3), [(0, 3)]),
     "pair (0,3) out of range"),
    (lambda: sc.star(sc.Total(), _rect()), "star needs a square relation"),
    (lambda: sc.relation_predicates(_rect()), "predicates need a square relation"),
    (lambda: sc.graph_image(
        sc.identity_homomorphism(empty_set_algebra(2)),
        sc.identity_homomorphism(empty_set_algebra(3))),
     "graph legs must share domain and codomain"),
], ids=["mask-out-of-range", "pair-out-of-range", "star-not-square",
        "predicates-not-square", "graph-image-legs"])
def test_public_edge_checks(build, message):
    with pytest.raises(ValueError) as raised:
        build()
    assert str(raised.value) == message
