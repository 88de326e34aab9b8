import itertools
import pathlib

import pytest

import starcheck as sc

CORPUS = pathlib.Path(__file__).resolve().parent.parent / "corpus"


def load_algebra(name: str) -> sc.FiniteAlgebra:
    path = CORPUS / f"{name}.alg"
    return sc.parse_algebra(path.read_text(), path.name)


def empty_set_algebra(n: int, name: str = "") -> sc.FiniteAlgebra:
    return sc.FiniteAlgebra(sc.Signature(()), n, (), name or f"set{n}")


def ring_algebra(n: int) -> sc.FiniteAlgebra:
    """The ring Z_n with the symbols of corpus/ringZ4.alg."""
    add = tuple((x + y) % n for x in range(n) for y in range(n))
    mul = tuple((x * y) % n for x in range(n) for y in range(n))
    neg = tuple(-x % n for x in range(n))
    signature = sc.Signature((("zero", 0), ("one", 0), ("add", 2), ("mul", 2), ("neg", 1)))
    return sc.FiniteAlgebra(signature, n, ((0,), (1 % n,), add, mul, neg), f"ringZ{n}")


def all_relations(a: sc.FiniteAlgebra):
    for mask in range(1 << (a.size * a.size)):
        yield sc.Relation(a, a, mask)


def all_maps(a: sc.FiniteAlgebra, b: sc.FiniteAlgebra):
    """Every homomorphism a -> b, by exhaustive filtering."""
    for m in itertools.product(b.carrier, repeat=a.size):
        result = sc.check_homomorphism(a, b, m)
        if isinstance(result, sc.Homomorphism):
            yield result


def compatible_partition(a: sc.FiniteAlgebra, partition) -> bool:
    """Independent oracle: the full multi-argument compatibility condition."""
    for sym, arity, table in a.operations():
        for u in itertools.product(a.carrier, repeat=arity):
            for v in itertools.product(a.carrier, repeat=arity):
                if all(partition[x] == partition[y] for x, y in zip(u, v)):
                    pu = a.apply(sym, u)
                    pv = a.apply(sym, v)
                    if partition[pu] != partition[pv]:
                        return False
    return True


def all_partitions(n: int):
    """All partitions of {0..n-1} as smallest-member tuples (restricted
    growth strings, re-labelled)."""
    def grow(prefix, maxblock):
        i = len(prefix)
        if i == n:
            yield tuple(prefix)
            return
        for b in range(maxblock + 2):
            yield from grow(prefix + [b], max(maxblock, b))

    for rgs in grow([], -1):
        first = {}
        for x, b in enumerate(rgs):
            first.setdefault(b, x)
        yield tuple(first[b] for b in rgs)


@pytest.fixture(scope="session")
def bool2():
    return load_algebra("bool2")


@pytest.fixture(scope="session")
def bool4():
    return load_algebra("bool4")


@pytest.fixture(scope="session")
def heyt2():
    return load_algebra("heyt2")


@pytest.fixture(scope="session")
def ring_z2():
    return load_algebra("ringZ2")


@pytest.fixture(scope="session")
def ring_z4():
    return load_algebra("ringZ4")


@pytest.fixture(scope="session")
def ring_z2xz2():
    return load_algebra("ringZ2xZ2")


@pytest.fixture(scope="session")
def group_z2():
    return load_algebra("groupZ2")


@pytest.fixture(scope="session")
def monoid01():
    return load_algebra("monoid01")


@pytest.fixture(scope="session")
def set1():
    return load_algebra("set1")


@pytest.fixture(scope="session")
def set2():
    return load_algebra("set2")


@pytest.fixture(scope="session")
def set3():
    return load_algebra("set3")


@pytest.fixture(scope="session")
def semilattice01():
    return sc.FiniteAlgebra(sc.Signature((("max", 2),)), 2, ((0, 1, 1, 1),), "semilattice01")


@pytest.fixture
def incoherent_clone(monkeypatch):
    """Make the clone pair every table it hands out with the tree of the
    first projection, so a witness's tree no longer evaluates to its
    table; only certification can notice."""
    from starcheck import terms

    closure = terms._clone_closure

    def lying(a, n, budget, settled=None):
        elements, complete = closure(a, n, budget, settled)
        return [(table, sc.Var(0)) for table, _ in elements], complete

    monkeypatch.setattr(terms, "_clone_closure", lying)
