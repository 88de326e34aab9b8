"""Seeded benchmark inputs.

Every base algebra is defined here from its textbook tables, not read from
the repository's corpus, so the workloads stay fixed while the corpus
evolves.  The seed only relabels carriers (a seeded permutation of the
elements) and draws relations: each generated algebra is isomorphic to a
fixed family member, so its correct answer and its amount of work do not
depend on the seed.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Tables:
    """An algebra as plain data: (symbol, arity, flat table) triples over
    {0..size-1}, leftmost argument most significant."""

    name: str
    size: int
    ops: tuple[tuple[str, int, tuple[int, ...]], ...]

    def table(self, symbol: str) -> tuple[int, ...]:
        for sym, _, table in self.ops:
            if sym == symbol:
                return table
        raise KeyError(symbol)

    def const(self, symbol: str) -> int:
        return self.table(symbol)[0]

    def text(self) -> str:
        """The algebra description document the CLI reads."""
        out = [f"algebra {self.name}", f"size {self.size}"]
        for sym, arity, table in self.ops:
            if arity == 0:
                out.append(f"const {sym} = {table[0]}")
            else:
                out.append(f"op {sym}/{arity} = [{' '.join(map(str, table))}]")
        return "\n".join(out) + "\n"


def _table(size: int, arity: int, fn) -> tuple[int, ...]:
    return tuple(fn(*args) for args in itertools.product(range(size), repeat=arity))


def ring(n: int) -> Tables:
    """The ring Z_n."""
    return Tables(f"ringZ{n}", n, (
        ("zero", 0, (0,)),
        ("one", 0, (1 % n,)),
        ("add", 2, _table(n, 2, lambda a, b: (a + b) % n)),
        ("mul", 2, _table(n, 2, lambda a, b: (a * b) % n)),
        ("neg", 1, _table(n, 1, lambda a: (-a) % n)),
    ))


def boolean(atoms: int) -> Tables:
    """The Boolean algebra of subsets of an ``atoms``-element set."""
    n = 1 << atoms
    top = n - 1
    return Tables(f"bool{n}", n, (
        ("zero", 0, (0,)),
        ("one", 0, (top,)),
        ("and", 2, _table(n, 2, lambda a, b: a & b)),
        ("or", 2, _table(n, 2, lambda a, b: a | b)),
        ("not", 1, _table(n, 1, lambda a: top ^ a)),
    ))


def heyting2() -> Tables:
    """The two-element Heyting algebra."""
    return Tables("heyt2", 2, (
        ("zero", 0, (0,)),
        ("one", 0, (1,)),
        ("and", 2, _table(2, 2, lambda a, b: a & b)),
        ("or", 2, _table(2, 2, lambda a, b: a | b)),
        ("imp", 2, _table(2, 2, lambda a, b: 1 if a <= b else 0)),
    ))


def group_z2() -> Tables:
    return Tables("groupZ2", 2, (
        ("e", 0, (0,)),
        ("mul", 2, _table(2, 2, lambda a, b: a ^ b)),
        ("inv", 1, (0, 1)),
    ))


def monoid01() -> Tables:
    """The two-element join semilattice with its bottom as constant."""
    return Tables("monoid01", 2, (
        ("zero", 0, (0,)),
        ("max", 2, _table(2, 2, max)),
    ))


def chain(n: int) -> Tables:
    """The n-element join-semilattice chain with its bottom as constant."""
    return Tables(f"chain{n}", n, (
        ("bot", 0, (0,)),
        ("join", 2, _table(n, 2, max)),
    ))


def chain_lattice(n: int) -> Tables:
    """The n-element chain as a lattice, with its bottom as constant."""
    return Tables(f"lattice{n}", n, (
        ("bot", 0, (0,)),
        ("meet", 2, _table(n, 2, min)),
        ("join", 2, _table(n, 2, max)),
    ))


def monounary(name: str, f: tuple[int, ...]) -> Tables:
    """One unary operation f with f(0) = 0, plus 0 as the constant bot."""
    return Tables(name, len(f), (("bot", 0, (0,)), ("f", 1, f)))


def bare_set(n: int) -> Tables:
    return Tables(f"set{n}", n, ())


def square(a: Tables) -> Tables:
    """The direct square, pairs encoded as x * size + y (the same encoding
    as the program's direct power)."""
    n = a.size
    ops = []
    for sym, arity, table in a.ops:
        entries = []
        for args in itertools.product(range(n * n), repeat=arity):
            left = _index((x // n for x in args), n)
            right = _index((x % n for x in args), n)
            entries.append(table[left] * n + table[right])
        ops.append((sym, arity, tuple(entries)))
    return Tables(f"{a.name}^2", n * n, tuple(ops))


def _index(args, size: int) -> int:
    idx = 0
    for x in args:
        idx = idx * size + x
    return idx


def permutation(rng: random.Random, n: int) -> tuple[int, ...]:
    perm = list(range(n))
    rng.shuffle(perm)
    return tuple(perm)


def relabel(a: Tables, perm: tuple[int, ...]) -> Tables:
    """The isomorphic copy in which element x is called perm[x]."""
    n = a.size
    ops = []
    for sym, arity, table in a.ops:
        out = [0] * len(table)
        for idx, args in enumerate(itertools.product(range(n), repeat=arity)):
            out[_index((perm[x] for x in args), n)] = perm[table[idx]]
        ops.append((sym, arity, tuple(out)))
    return Tables(a.name, n, tuple(ops))


def seeded_rng(seed: int, stream: str) -> random.Random:
    """An independent generator per input stream, so adding an input to one
    workload does not change the draws of another."""
    return random.Random(f"{seed}:{stream}")
