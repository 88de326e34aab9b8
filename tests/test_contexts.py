import itertools

import pytest

import starcheck as sc
from starcheck.errors import ContextError

from conftest import all_maps, empty_set_algebra

CONTEXT_NAMES = ["total", "pointed:0", "proto"]


def contexts_for(a: sc.FiniteAlgebra):
    """Total, every admissible pointed base, and proto."""
    out = [sc.Total()]
    for b in a.carrier:
        try:
            sc.validate_context(sc.Pointed(b), a)
        except ContextError:
            continue
        out.append(sc.Pointed(b))
    out.append(sc.ProtoPointed())
    return out


class TestParseContext:
    def test_specs(self):
        assert sc.parse_context("total") == sc.Total()
        assert sc.parse_context("pointed:0") == sc.Pointed(0)
        assert sc.parse_context("pointed:zero") == sc.Pointed("zero")
        assert sc.parse_context("proto") == sc.ProtoPointed()
        with pytest.raises(ValueError):
            sc.parse_context("weird")

    def test_labels(self):
        assert sc.context_label(sc.Pointed("e")) == "pointed:e"
        assert sc.context_label(sc.Total()) == "total"


class TestNullClass:
    def test_total_whole_carrier(self, set3):
        assert sc.null_class(sc.Total(), set3).elements == frozenset({0, 1, 2})

    def test_pointed_base(self, monoid01):
        assert sc.null_class(sc.Pointed(0), monoid01).elements == frozenset({0})

    def test_proto_bool4(self, bool4):
        assert sc.null_class(sc.ProtoPointed(), bool4).elements == frozenset({0, 3})

    def test_proto_constant_free_is_empty(self, set3):
        # degenerate but admissible: with no constants nothing is trivial
        assert sc.null_class(sc.ProtoPointed(), set3).elements == frozenset()

    def test_pointed_by_constant_name(self, group_z2):
        assert sc.null_class(sc.Pointed("e"), group_z2).elements == frozenset({0})

    def test_pointed_base_must_be_subalgebra(self, monoid01, bool2):
        with pytest.raises(ContextError):
            sc.null_class(sc.Pointed(1), monoid01)
        # bool2 carries the constant one = 1, so 0 is not a subalgebra
        with pytest.raises(ContextError):
            sc.null_class(sc.Pointed(0), bool2)

    def test_pointed_errors(self, monoid01):
        with pytest.raises(ContextError):
            sc.null_class(sc.Pointed(9), monoid01)
        with pytest.raises(ContextError):
            sc.null_class(sc.Pointed("missing"), monoid01)

    def test_library_checks_reject_inadmissible_context(self, monoid01):
        # 1 is not a subalgebra of monoid01 (the constant is 0).  Each call
        # is made twice, so a failed validation is never cached; the
        # relation is incompatible, so ContextError must precede the
        # compatibility ValueError of the star routes.
        ctx = sc.Pointed(1)
        r = sc.Relation.from_pairs(monoid01, monoid01, [(0, 1)])
        ident = sc.identity_homomorphism(monoid01)
        calls = [
            lambda: sc.star(ctx, r),
            lambda: sc.star_via_pullback(ctx, r),
            lambda: sc.is_left_star_symmetric(ctx, r),
            lambda: sc.is_star_symmetric(ctx, r),
            lambda: sc.graph_left_star_symmetric(ctx, ident, ident),
        ]
        for call in calls:
            for _ in range(2):
                with pytest.raises(ContextError):
                    call()


class TestNullMorphisms:
    def test_total_everything_null(self, set3, set2):
        for f in all_maps(set3, set2):
            assert sc.is_null_morphism(sc.Total(), f)

    def test_pointed(self, monoid01):
        const0 = sc.Homomorphism(monoid01, monoid01, (0, 0))
        ident = sc.identity_homomorphism(monoid01)
        assert sc.is_null_morphism(sc.Pointed(0), const0)
        assert not sc.is_null_morphism(sc.Pointed(0), ident)

    def test_proto_z4_identity_null(self, ring_z4):
        ident = sc.identity_homomorphism(ring_z4)
        assert sc.is_null_morphism(sc.ProtoPointed(), ident)


class TestNKernel:
    def test_total_is_whole_domain(self, set3, set2):
        f = sc.Homomorphism(set3, set2, (0, 0, 1))
        assert sc.n_kernel(sc.Total(), f) == frozenset({0, 1, 2})

    def test_pointed_preimage_of_base(self, set3, set2):
        f = sc.Homomorphism(set3, set2, (0, 0, 1))
        assert sc.n_kernel(sc.Pointed(0), f) == frozenset({0, 1})

    def test_proto_projection(self, ring_z2xz2, ring_z2):
        f = sc.Homomorphism(ring_z2xz2, ring_z2, (0, 0, 1, 1))
        assert sc.n_kernel(sc.ProtoPointed(), f) == frozenset({0, 1, 2, 3})

    def test_null_class_is_kernel_of_identity(
        self, bool2, bool4, monoid01, group_z2, ring_z4, set2, set3
    ):
        for a in (bool2, bool4, monoid01, group_z2, ring_z4, set2, set3):
            for ctx in contexts_for(a):
                ident = sc.identity_homomorphism(a)
                assert sc.n_kernel(ctx, ident) == sc.null_class(ctx, a).elements

    def test_kernel_is_subalgebra(self, ring_z4, ring_z2, monoid01):
        cases = [sc.Homomorphism(ring_z4, ring_z2, (0, 1, 0, 1))]
        cases.extend(all_maps(monoid01, monoid01))
        for f in cases:
            for ctx in contexts_for(f.codomain):
                k = sc.n_kernel(ctx, f)
                assert sc.subalgebra_closure(f.domain, k) == k or not k


class TestPullbackStability:
    def test_exhaustive_small_sets(self):
        # kernels pull back along surjections: the kernel of a composite
        # with a surjection is the preimage of the kernel
        for sg, sr, sz in itertools.product(range(1, 4), repeat=3):
            g, r, z = (empty_set_algebra(s) for s in (sg, sr, sz))
            surjections = [q for q in all_maps(g, r) if q.is_surjective]
            if not surjections:
                continue
            for ctx in contexts_for(z):
                for q in surjections:
                    for f in all_maps(r, z):
                        fq = sc.compose_homomorphisms(q, f)
                        kf = sc.n_kernel(ctx, f)
                        expected = frozenset(
                            x for x in g.carrier if q.map[x] in kf
                        )
                        assert sc.n_kernel(ctx, fq) == expected


class TestIdealLaw:
    def test_composites_with_null_factor_are_null(self):
        # in pointed mode the morphism universe is the base-preserving maps
        for sa, sb, scar in itertools.product(range(1, 4), repeat=3):
            a, b, c = (empty_set_algebra(s) for s in (sa, sb, scar))
            for ctx in [sc.Total(), sc.Pointed(0), sc.ProtoPointed()]:
                for f in all_maps(a, b):
                    if isinstance(ctx, sc.Pointed) and f.map[0] != 0:
                        continue
                    for g in all_maps(b, c):
                        if isinstance(ctx, sc.Pointed) and g.map[0] != 0:
                            continue
                        if sc.is_null_morphism(ctx, f) or sc.is_null_morphism(ctx, g):
                            composite = sc.compose_homomorphisms(f, g)
                            assert sc.is_null_morphism(ctx, composite)

    def test_ideal_law_with_constants(self, monoid01, bool4, bool2):
        ctx = sc.ProtoPointed()
        homs = list(all_maps(monoid01, monoid01))
        homs.append(sc.Homomorphism(bool4, bool2, (0, 0, 1, 1)))
        for f in homs:
            for g in homs:
                if f.codomain != g.domain:
                    continue
                if sc.is_null_morphism(ctx, f) or sc.is_null_morphism(ctx, g):
                    assert sc.is_null_morphism(ctx, sc.compose_homomorphisms(f, g))


class TestSaturation:
    def test_pointed_always_saturating(self):
        for sa, sb in itertools.product(range(1, 4), repeat=2):
            a, b = empty_set_algebra(sa), empty_set_algebra(sb)
            for f in all_maps(a, b):
                if f.map[0] != 0:
                    continue  # pointed morphisms preserve the base
                assert sc.is_saturating(sc.Pointed(0), f)

    def test_total_saturating_iff_surjective(self):
        for sa, sb in itertools.product(range(1, 4), repeat=2):
            a, b = empty_set_algebra(sa), empty_set_algebra(sb)
            for f in all_maps(a, b):
                assert sc.is_saturating(sc.Total(), f) == f.is_surjective

    def test_proto_with_constants_always_saturating(
        self, monoid01, bool4, bool2, ring_z4, ring_z2
    ):
        cases = list(all_maps(monoid01, monoid01))
        cases.append(sc.Homomorphism(ring_z4, ring_z2, (0, 1, 0, 1)))
        cases.append(sc.Homomorphism(bool4, bool2, (0, 0, 1, 1)))
        cases.extend(all_maps(bool2, bool2))
        for f in cases:
            assert sc.is_saturating(sc.ProtoPointed(), f)
