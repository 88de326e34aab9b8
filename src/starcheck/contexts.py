"""Ideal contexts: which morphisms count as null, and the kernels they induce.

Three regimes are supported: total (every morphism is null), pointed at a
designated base element, and proto-pointed (null means factoring through
the subalgebra generated by the constants).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from .algebra import FiniteAlgebra, Homomorphism, constants_subalgebra
from .errors import ContextError, UsageError


@dataclass(frozen=True)
class Total:
    def __str__(self):
        return "total"


@dataclass(frozen=True)
class Pointed:
    """Pointed at a base element, given as an index or a constant name."""

    base: int | str

    def __str__(self):
        return f"pointed:{self.base}"


@dataclass(frozen=True)
class ProtoPointed:
    def __str__(self):
        return "proto"


IdealContext = Total | Pointed | ProtoPointed


@dataclass(frozen=True)
class NullClass:
    """The trivial elements of an algebra under a context."""

    algebra: FiniteAlgebra
    elements: frozenset[int]


def parse_context(text: str) -> IdealContext:
    if text == "total":
        return Total()
    if text == "proto":
        return ProtoPointed()
    if text.startswith("pointed:"):
        base = text.split(":", 1)[1]
        if not base:
            raise UsageError("pointed context needs a base element")
        return Pointed(int(base) if base.isdigit() else base)
    raise UsageError(f"unknown context {text!r}")


def context_label(ctx: IdealContext) -> str:
    return str(ctx)


def resolve_base(ctx: Pointed, a: FiniteAlgebra) -> int:
    if isinstance(ctx.base, str):
        try:
            return a.constant_value(ctx.base)
        except (KeyError, ValueError):
            raise ContextError(
                f"no constant symbol {ctx.base!r} in the signature"
            ) from None
    if not 0 <= ctx.base < a.size:
        raise ContextError(f"base element {ctx.base} out of range")
    return ctx.base


def validate_context(ctx: IdealContext, a: FiniteAlgebra) -> None:
    """Raise ContextError if the context is not admissible for the algebra."""
    if isinstance(ctx, Pointed):
        base = resolve_base(ctx, a)
        for sym, arity, table in a.operations():
            if a.apply(sym, (base,) * arity) != base:
                raise ContextError(
                    f"base {base} is not a one-element subalgebra: "
                    f"{sym} moves it"
                )


@functools.lru_cache(maxsize=None)
def _null_elements(ctx: IdealContext, a: FiniteAlgebra) -> frozenset[int]:
    validate_context(ctx, a)
    if isinstance(ctx, Total):
        return frozenset(a.carrier)
    if isinstance(ctx, Pointed):
        return frozenset({resolve_base(ctx, a)})
    return constants_subalgebra(a)


def null_class(ctx: IdealContext, a: FiniteAlgebra) -> NullClass:
    """Trivial elements: the whole carrier (total), the base point
    (pointed), or the constants-generated subalgebra (proto-pointed)."""
    return NullClass(a, _null_elements(ctx, a))


def is_null_morphism(ctx: IdealContext, f: Homomorphism) -> bool:
    return f.image <= _null_elements(ctx, f.codomain)


def n_kernel(ctx: IdealContext, f: Homomorphism) -> frozenset[int]:
    """Largest subset of the domain mapped into the codomain's null class;
    always a subalgebra."""
    nc = _null_elements(ctx, f.codomain)
    return frozenset(x for x in f.domain.carrier if f.map[x] in nc)


def is_saturating(ctx: IdealContext, f: Homomorphism) -> bool:
    """True iff f restricted to null classes is surjective."""
    nc_dom = _null_elements(ctx, f.domain)
    nc_cod = _null_elements(ctx, f.codomain)
    return {f.map[x] for x in nc_dom} == set(nc_cod)
