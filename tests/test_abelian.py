import math
import random
from itertools import combinations

from hypothesis import given, settings
from hypothesis import strategies as st

from pdef import (
    IntegerMatrix,
    Presentation,
    abelian_invariants,
    parse_presentation,
    reduce,
    relator_matrix,
    smith_normal_form,
    tietze_simplify,
)
from pdef.abelian import cokernel_invariants
from oracles import determinant, matmul


def test_relator_matrix(triangle_power_pres, dinf):
    M = relator_matrix(triangle_power_pres)
    assert M.entries == (
        (3, 0, 0),
        (0, 3, 0),
        (0, 0, 3),
        (3, 3, 0),
        (3, 0, 3),
        (0, 3, 3),
    )
    C = parse_presentation("gens: x, y\nrel: [x,y]")
    assert relator_matrix(C).entries == ((0, 0),)
    assert relator_matrix(dinf).entries == ((2, 0), (0, 2))


def test_snf_examples():
    assert smith_normal_form(IntegerMatrix.from_rows([[2, 0], [0, 2]]))[0] == [2, 2]
    assert smith_normal_form(IntegerMatrix.from_rows([[2, 4], [6, 8]]))[0] == [2, 4]
    assert smith_normal_form(IntegerMatrix.from_rows([[0, 0, 0], [0, 0, 0]]))[0] == [0, 0]
    # no columns: no factors, U the 2 x 2 identity, V empty
    assert smith_normal_form(IntegerMatrix.from_rows([[], []])) == ([], None)
    factors, (U, V) = smith_normal_form(IntegerMatrix.from_rows([[], []]), transforms=True)
    assert factors == [] and U.entries == ((1, 0), (0, 1)) and V.entries == ()
    # diagonal already, but off the divisibility chain: the chain is mended
    for rows, expected in (
        ([[2, 0], [0, 3]], [1, 6]),
        ([[4, 0], [0, 6]], [2, 12]),
        ([[6, 0, 0], [0, 10, 0], [0, 0, 15]], [1, 30, 30]),
    ):
        factors, (U, V) = smith_normal_form(IntegerMatrix.from_rows(rows), transforms=True)
        assert factors == expected
        U, V = [list(r) for r in U.entries], [list(r) for r in V.entries]
        assert abs(determinant(U)) == 1 and abs(determinant(V)) == 1
        n = len(rows)
        assert matmul(matmul(U, rows), V) == [[expected[i] if i == j else 0 for j in range(n)] for i in range(n)]


def test_snf_mends_a_long_diagonal_of_primes():
    # diag of the first 20 primes, each twice: 38 ones, then their product
    # twice, reached through many chain repairs
    primes = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71]
    k = 40
    rows = [[primes[i % 20] if i == j else 0 for j in range(k)] for i in range(k)]
    factors, (U, V) = smith_normal_form(IntegerMatrix.from_rows(rows), transforms=True)
    assert factors == [1] * 38 + [math.prod(primes)] * 2
    # U M V = diag(factors), and det M = prod(factors) != 0, so det U det V = 1
    # in absolute value: both are unimodular
    D = matmul(matmul([list(r) for r in U.entries], rows), [list(r) for r in V.entries])
    assert D == [[factors[i] if i == j else 0 for j in range(k)] for i in range(k)]


def test_snf_transforms_on_random_matrices():
    rng = random.Random(37)
    for _ in range(200):
        rows = [[rng.randrange(-5, 6) for _ in range(4)] for _ in range(4)]
        M = IntegerMatrix.from_rows(rows)
        factors, (U, V) = smith_normal_form(M, transforms=True)
        # unimodular transforms, checked against a cofactor determinant
        assert abs(determinant([list(r) for r in U.entries])) == 1
        assert abs(determinant([list(r) for r in V.entries])) == 1
        D = matmul(matmul([list(r) for r in U.entries], rows), [list(r) for r in V.entries])
        for i in range(4):
            for j in range(4):
                assert D[i][j] == (factors[i] if i == j else 0)
        # divisibility chain
        for a, b in zip(factors, factors[1:]):
            assert (a == 0 and b == 0) or (a != 0 and b % a == 0)
        det = determinant(rows)
        if det != 0:
            prod = 1
            for d in factors:
                prod *= d
            assert prod == abs(det)


@st.composite
def small_matrices(draw):
    """An m x n integer matrix, 1 <= m, n <= 5, entries in [-6, 6]."""
    m, n = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    return [draw(st.lists(st.integers(-6, 6), min_size=n, max_size=n)) for _ in range(m)]


@settings(max_examples=300, deadline=None)
@given(small_matrices())
def test_snf_products_are_gcds_of_minors(rows):
    # d_1 * ... * d_k is the gcd of all k x k minors (0 when they all vanish)
    m, n = len(rows), len(rows[0])
    factors, _ = smith_normal_form(IntegerMatrix.from_rows(rows))
    for k in range(1, min(m, n) + 1):
        minors = 0
        for r in combinations(range(m), k):
            for c in combinations(range(n), k):
                minors = math.gcd(minors, determinant([[rows[i][j] for j in c] for i in r]))
        assert math.prod(factors[:k]) == minors
    # the same factors with transforms, and U (m x m), V (n x n) unimodular
    # with U*M*V = diag(factors) on every shape, m != n included
    with_uv, (U, V) = smith_normal_form(IntegerMatrix.from_rows(rows), transforms=True)
    assert with_uv == factors
    U, V = [list(r) for r in U.entries], [list(r) for r in V.entries]
    assert (len(U), len(U[0]), len(V), len(V[0])) == (m, m, n, n)
    assert abs(determinant(U)) == 1 and abs(determinant(V)) == 1
    D = matmul(matmul(U, rows), V)
    assert D == [[factors[i] if i == j else 0 for j in range(n)] for i in range(m)]


def test_snf_invariant_under_permutation_and_sign():
    rng = random.Random(41)
    for _ in range(50):
        rows = [[rng.randrange(-4, 5) for _ in range(3)] for _ in range(4)]
        base, _ = smith_normal_form(IntegerMatrix.from_rows(rows))
        perm = list(range(4))
        rng.shuffle(perm)
        shuffled = [rows[i][:] for i in perm]
        cols = list(range(3))
        rng.shuffle(cols)
        shuffled = [[row[c] for c in cols] for row in shuffled]
        i = rng.randrange(4)
        shuffled[i] = [-x for x in shuffled[i]]
        assert smith_normal_form(IntegerMatrix.from_rows(shuffled))[0] == base


def test_abelian_invariants(triangle_power_pres, rank4_pres, dinf):
    inv = abelian_invariants(triangle_power_pres)
    assert inv.free_rank == 0 and inv.torsion == (3, 3, 3)
    inv = abelian_invariants(rank4_pres)
    assert inv.free_rank == 4 and inv.torsion == ()
    inv = abelian_invariants(dinf)
    assert inv.free_rank == 0 and inv.torsion == (2, 2)
    assert str(inv) == "Z/2 x Z/2"


def _surjects_onto_Z(P):
    return abelian_invariants(P).free_rank >= 1


def test_surjects_onto_Z(rank4_pres, triangle_power_pres):
    assert _surjects_onto_Z(rank4_pres)
    assert not _surjects_onto_Z(triangle_power_pres)
    assert _surjects_onto_Z(parse_presentation("gens: x"))


def test_surjects_invariant_under_tietze(finite_corpus, rank4_pres):
    for P in list(finite_corpus) + [rank4_pres]:
        assert _surjects_onto_Z(tietze_simplify(P)) == _surjects_onto_Z(P)


def test_invariant_bounds(finite_corpus):
    for P in finite_corpus:
        inv = abelian_invariants(P)
        assert inv.free_rank + len(inv.torsion) <= P.n_generators
        assert all(d >= 2 for d in inv.torsion)


def test_unit_pivots_match_dense_snf_and_tietze():
    # empty relators, unused generators and entries other than +-1 all
    # occur; the sparse elimination must agree with SNF of the whole
    # matrix and with the invariants of a Tietze-simplified presentation
    rng = random.Random(53)
    for _ in range(600):
        n = rng.randrange(0, 6)
        relators = []
        for _ in range(rng.randrange(0, 7)):
            length = rng.randrange(0, 12) if n else 0
            relators.append(reduce([rng.choice((1, -1)) * rng.randrange(1, n + 1) for _ in range(length)]))
        if n and rng.random() < 0.3:
            g = rng.randrange(1, n + 1)
            relators.append(reduce([g] * rng.randrange(2, 7)))  # a pure power, no unit entry
        P = Presentation(tuple(f"g{i}" for i in range(n)), tuple(relators))
        inv = abelian_invariants(P)
        assert inv == cokernel_invariants(relator_matrix(P), n)
        assert inv == abelian_invariants(tietze_simplify(P))
