import itertools
import random
import tracemalloc
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from superskel import randgen
from superskel.errors import (NotInvertibleError, ParityError, RankCapError,
                              RankMismatchError)
from superskel.grassmann import (MAX_RANK_ENV, GrassmannElement, GrassmannMorphism, _signed_mask,
                                  merge_sign)
from superskel.parsing import parse_grassmann

G = GrassmannElement


def gens(rank, *indices):
    value = G.unit(rank)
    for i in indices:
        value = value * G.generator(rank, i)
    return value


def elements(rank=5, parity=None):
    seeds = st.integers(min_value=0, max_value=10 ** 6)
    return seeds.map(lambda s: randgen.random_grassmann(random.Random(s), rank,
                                                        parity=parity, terms=4))


def test_product_signs():
    assert gens(2, 1) * gens(2, 2) == gens(2, 1, 2)
    assert gens(2, 2) * gens(2, 1) == -gens(2, 1, 2)
    one = G.unit(2)
    assert (one + gens(2, 1, 2)) * (one - gens(2, 1, 2)) == one


def test_coefficient_reads_any_label_order():
    a = G(3, {(1,): 5, (1, 2): 3, (1, 2, 3): F(1, 2)})
    assert a.coefficient((1, 2)) == 3
    assert a.coefficient((2, 1)) == -3  # g2 g1 = -g1 g2
    assert a.coefficient((1, 1)) == 0  # g1 g1 = 0, not the g1 coefficient
    assert a.coefficient((1,)) == 5
    assert a.coefficient((2, 1, 3)) == F(-1, 2)
    assert a.coefficient((3, 1, 2)) == F(1, 2)
    assert a.coefficient((2, 3)) == 0 and a.coefficient(()) == 0
    # zero, negative and out-of-rank labels name no monomial
    assert a.coefficient((0,)) == a.coefficient((2, 0, 1)) == 0
    assert a.coefficient((-1, 2)) == a.coefficient((1, -1)) == 0
    assert a.coefficient((4,)) == a.coefficient((3, 2, 1, 4)) == 0
    # a label past the rank is refused before its bit is built: 1 << 10**8
    # would be a 12.5 MB int
    tracemalloc.start()
    try:
        assert a.coefficient((10 ** 8,)) == a.coefficient((1, 10 ** 8)) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_signed_mask_is_the_sign_of_sorting():
    for top in (3, 4):
        for length in range(5):
            for labels in itertools.product(range(-1, 5), repeat=length):
                if len(set(labels)) < length or min(labels, default=1) < 1 or \
                        max(labels, default=1) > top:
                    expected = (0, 0)
                else:
                    inversions = sum(a > b for a, b in itertools.combinations(labels, 2))
                    expected = ((-1) ** inversions, sum(1 << (l - 1) for l in labels))
                assert _signed_mask(labels, top) == expected


def test_constructor_reads_one_monomial_per_key():
    # two raw keys of one monomial are summed, and can cancel to zero
    assert G(2, {range(1, 3): 1, (1, 2): 2}) == G(2, {(1, 2): 3})
    assert G(2, {range(1, 3): 1, (1, 2): -1}).is_zero()
    assert G(2, {range(1, 3): F(1, 2), (1, 2): F(1, 3), (1,): 1}) == \
        G(2, {(1, 2): F(5, 6), (1,): 1})
    # mixed denominators come out over their lcm
    a = G(2, {(): F(1, 4), (1,): F(1, 6), (2,): 2})
    assert (a._den, a._ints) == (12, {0: 3, 1: 2, 2: 24})
    assert a.terms == {(): F(1, 4), (1,): F(1, 6), (2,): 2}
    # coefficients are exact rationals, labels integers
    for terms in ({(1,): 0.5}, {(1.9,): 1}, {("1",): 1}):
        with pytest.raises(TypeError):
            G(2, terms)


def test_body():
    assert (G.scalar(3, 2) + 5 * gens(3, 1)).body() == F(2)
    assert gens(3, 1, 2).body() == F(0)
    assert G.zero(3).body() == F(0)


def test_invert_examples():
    one = G.unit(2)
    assert (one + gens(2, 1, 2)).invert() == one - gens(2, 1, 2)
    assert G.scalar(1, 2).invert() == G.scalar(1, F(1, 2))
    a = G.scalar(4, 3) + gens(4, 1, 2) + gens(4, 3, 4)
    expected = (G.scalar(4, F(1, 3)) - F(1, 9) * (gens(4, 1, 2) + gens(4, 3, 4))
                + F(2, 27) * gens(4, 1, 2, 3, 4))
    assert a.invert() == expected
    assert a * a.invert() == G.unit(4)
    with pytest.raises(NotInvertibleError):
        gens(2, 1).invert()


def test_morphism_examples():
    body = GrassmannMorphism.to_body(3)
    assert body(G.scalar(3, 2) + 5 * gens(3, 1)) == G.scalar(0, 2)
    swap = GrassmannMorphism.permutation(2, [2, 1])
    assert swap(gens(2, 1, 2)) == -gens(2, 1, 2)
    sub = GrassmannMorphism(2, 2, [G.generator(2, 1) + G.generator(2, 2),
                                   G.generator(2, 2)])
    assert sub(gens(2, 1, 2)) == gens(2, 1, 2)
    ident = GrassmannMorphism.identity(3)
    x = randgen.random_grassmann(random.Random(0), 3, terms=4)
    assert ident(x) == x
    # monomials holding a killed generator vanish, the others stay
    kill = GrassmannMorphism.kill_generator(3, 2)
    a = G.scalar(3, 2) + gens(3, 1) + 5 * gens(3, 1, 2) - gens(3, 2, 3) + 7 * gens(3, 1, 3)
    assert kill(a) == G.scalar(3, 2) + gens(3, 1) + 7 * gens(3, 1, 3)
    assert kill(gens(3, 1, 2, 3)) == G.zero(3)
    assert body(a - G.scalar(3, 2)) == G.zero(0)
    rng = random.Random(1)
    for _ in range(20):
        x = randgen.random_grassmann(rng, 3, terms=6)
        assert kill(x) == G(3, {l: c for l, c in x.terms.items() if 2 not in l})
        assert body(x) == G.scalar(0, x.body())


def test_morphism_validation():
    with pytest.raises(ParityError):
        GrassmannMorphism(1, 2, [G.unit(2)])
    with pytest.raises(RankMismatchError):
        GrassmannMorphism(1, 2, [G.generator(3, 1)])
    m = GrassmannMorphism.to_body(2)
    with pytest.raises(RankMismatchError):
        m(G.unit(3))


def test_add_scale():
    t1 = gens(3, 1)
    assert t1 + (-1) * t1 == G.zero(3)
    assert 2 * (G.scalar(3, F(1, 2)) + gens(3, 1, 2)) == G.unit(3) + 2 * gens(3, 1, 2)
    lhs = (gens(3, 1) + gens(3, 1, 2)) + (gens(3, 2) - gens(3, 1, 2))
    assert lhs == gens(3, 1) + gens(3, 2)


def test_rank_cap(monkeypatch):
    monkeypatch.setenv("SUPERSKEL_MAX_RANK", "4")
    with pytest.raises(RankCapError):
        G.unit(5)
    monkeypatch.setenv("SUPERSKEL_MAX_RANK", "12")
    assert G.unit(10).rank == 10


@settings(max_examples=60, deadline=None)
@given(elements(6), elements(6), elements(6))
def test_associativity_distributivity(a, b, c):
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 1), st.integers(0, 1), st.integers(0, 10 ** 6), st.integers(0, 10 ** 6))
def test_supercommutativity(pa, pb, sa, sb):
    a = randgen.random_grassmann(random.Random(sa), 5, parity=pa, terms=3)
    b = randgen.random_grassmann(random.Random(sb), 5, parity=pb, terms=3)
    sign = -1 if pa and pb else 1
    assert a * b == sign * (b * a)


@settings(max_examples=40, deadline=None)
@given(elements(5), elements(5))
def test_body_is_multiplicative(a, b):
    assert (a * b).body() == a.body() * b.body()


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10 ** 6), elements(4), elements(4))
def test_morphisms_are_multiplicative(seed, a, b):
    m = randgen.random_morphism(random.Random(seed), 4, 4)
    assert m(a * b) == m(a) * m(b)


@settings(max_examples=40, deadline=None)
@given(elements(5))
def test_invert_round_trip(a):
    if a.body() == 0:
        a = a + 1
    assert a * a.invert() == G.unit(5)


@settings(max_examples=40, deadline=None)
@given(elements(5))
def test_soul_nilpotency(a):
    soul = a.soul()
    assert soul ** 6 == G.zero(5)


def test_body_unit_round_trip():
    # scalars embed and project without loss
    for value in (F(0), F(3, 7), F(-2)):
        assert G.scalar(4, value).body() == value


# -- Jordan-Wigner representation: a third, matrix oracle for the sign law ---


def jordan_wigner_basis(rank):
    """Matrices of every basis monomial g_J under g_i -> sz^(i-1) (x) s- (x) I^(rank-i).

    Exact numpy object arrays, built without ``merge_sign``.  The monomial
    g_J sends the vacuum e_0 to +-e_J, so the 2^rank images are linearly
    independent and equal images mean equal elements.
    """
    np = pytest.importorskip("numpy")
    sigma_z = np.array([[1, 0], [0, -1]], dtype=object)
    sigma_minus = np.array([[0, 0], [1, 0]], dtype=object)
    eye = np.identity(2, dtype=object)
    gens = []
    for i in range(rank):
        matrix = np.identity(1, dtype=object)
        for k in range(rank):
            matrix = np.kron(matrix, sigma_z if k < i else sigma_minus if k == i else eye)
        gens.append(matrix)
    basis = {(): np.identity(2 ** rank, dtype=object)}
    for size in range(1, rank + 1):
        for labels in itertools.combinations(range(1, rank + 1), size):
            basis[labels] = basis[labels[:-1]].dot(gens[labels[-1] - 1])
    return basis


def represent(terms, basis, scalar=lambda c: c):
    """The matrix of sum_J c_J g_J, with Fraction entries."""
    total = basis[()] * F(0)
    for labels, coeff in terms.items():
        total = total + basis[labels] * scalar(coeff)
    return total


@pytest.mark.parametrize("rank", [1, 2, 3, 4, 5])
def test_jordan_wigner_grassmann_products(rank):
    basis = jordan_wigner_basis(rank)
    # g_J sends the vacuum to +-e_J: the representation is faithful
    assert sorted(list(m[:, 0] != 0).index(True) for m in basis.values()) == \
        list(range(2 ** rank))
    rng = random.Random(40 + rank)
    for _ in range(4):
        a = randgen.random_grassmann(rng, rank, terms=4, nonzero_body=True)
        b = randgen.random_grassmann(rng, rank, terms=4)
        phi_a, phi_b = represent(a.terms, basis), represent(b.terms, basis)
        assert (represent((a * b).terms, basis) == phi_a.dot(phi_b)).all()
        assert (represent((a ** 2).terms, basis) == phi_a.dot(phi_a)).all()
        assert (represent(a.invert().terms, basis).dot(phi_a) == basis[()]).all()


@pytest.mark.parametrize("odd_dim", [1, 2, 3, 4, 5])
def test_jordan_wigner_superfunction_products(odd_dim):
    from superskel.spaces import DeWittDomain, SuperSpace
    from superskel.superfn import SuperFunction

    space = SuperSpace(1, odd_dim)
    full = DeWittDomain.full(space)
    basis = jordan_wigner_basis(odd_dim)  # t_j -> g_j
    constant = lambda rf: rf.constant_value()
    rng = random.Random(50 + odd_dim)
    for _ in range(4):
        f, g = (SuperFunction(space, full, randgen.random_grassmann(rng, odd_dim, terms=4).terms)
                for _ in range(2))
        phi_f, phi_g = represent(f.terms, basis, constant), represent(g.terms, basis, constant)
        assert (represent((f * g).terms, basis, constant) == phi_f.dot(phi_g)).all()


# -- the mask kernel against a reference on the ``terms`` views -----------------
# The reference multiplies label tuples with ``merge_sign`` and Fractions; the
# library's product shares no sign routine with it.


def _clean(terms):
    return {l: c for l, c in terms.items() if c}


def ref_sum(a, b, k=1):
    out = dict(a)
    for labels, c in b.items():
        out[labels] = out.get(labels, 0) + k * c
    return _clean(out)


def ref_product(a, b):
    out = {}
    for l1, c1 in a.items():
        for l2, c2 in b.items():
            sign, merged = merge_sign(l1, l2)
            if sign:
                out[merged] = out.get(merged, 0) + sign * c1 * c2
    return _clean(out)


def ref_invert(a, rank):
    body = a[()]
    soul = {l: c for l, c in a.items() if l}
    result, power, scale = {(): 1 / body}, {(): F(1)}, 1 / body
    for _ in range(rank):
        power = ref_product(power, soul)
        scale = -scale / body
        result = ref_sum(result, {l: c * scale for l, c in power.items()})
    return result


def ref_apply(images, a):
    out = {}
    for labels, c in a.items():
        value = {(): c}
        for label in labels:
            value = ref_product(value, images[label - 1])
        out = ref_sum(out, value)
    return out


FRACTIONS = st.fractions(min_value=-9, max_value=9, max_denominator=6)


def _terms(draw, rank, parity=None, size=None):
    labels = randgen.label_tuples(rank, parity)
    if not labels:
        return {}
    # dense up to rank 4, so that every sign of those ranks can be reached
    size = len(labels) if size is None and rank <= 4 else size or 6
    return draw(st.dictionaries(st.sampled_from(labels), FRACTIONS, max_size=size))


@st.composite
def algebra_cases(draw):
    """A rank (0-8, or 12 above the default cap), two elements, a scalar,
    and a morphism into the rank from a rank of at most 4 with an element
    to map."""
    rank = draw(st.sampled_from(list(range(9)) + [12]))
    a, b = _terms(draw, rank), _terms(draw, rank)
    source_rank = draw(st.integers(0, min(rank, 4)))
    images = [_terms(draw, rank, parity=1, size=3) for _ in range(source_rank)]
    return rank, a, b, draw(FRACTIONS), images, _terms(draw, source_rank)


@settings(max_examples=150, deadline=None)
@given(algebra_cases())
def test_kernel_matches_reference(case):
    rank, a, b, k, images, source = case
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv(MAX_RANK_ENV, "12")
        x, y = G(rank, a), G(rank, b)
        assert x.terms == _clean(a)
        assert (x * y).terms == ref_product(a, b)
        assert (x + y).terms == ref_sum(a, b)
        assert (x - y).terms == ref_sum(a, b, -1)
        assert (x * k).terms == _clean({l: c * k for l, c in a.items()})
        if a.get(()):
            assert x.invert().terms == ref_invert(a, rank)
        m = GrassmannMorphism(len(images), rank, [G(rank, im) for im in images])
        assert m(G(len(images), source)).terms == ref_apply(images, source)

        # one value reached by six paths has one ==, hash and format
        z = x * y
        paths = [G(rank, ref_product(a, b)), z * G.unit(rank), (z + x) - x, z * 3 / 3,
                 parse_grassmann(z.format(), rank)]
        for other in paths:
            assert other == z and hash(other) == hash(z) and other.format() == z.format()


def test_zero_divisors_reduce_after_the_product():
    """(g1 + 3g2)(g1 - 3g2) = -6 g1g2: integer parts with no common factor
    have a product with one, so the gcd is taken after multiplying."""
    x, y = G(2, {(1,): 1, (2,): 3}), G(2, {(1,): 1, (2,): -3})
    assert x * y == G.monomial(2, (1, 2), -6)
    assert (x / 6) * y == G.monomial(2, (1, 2), -1)
    assert hash((x / 6) * y) == hash(G.monomial(2, (1, 2), -1))
    assert ((x / 6) * y).format() == "-1*g1g2"


def test_every_basis_product_matches_merge_sign():
    for rank in range(9):
        basis = randgen.label_tuples(rank)
        monomials = [G.monomial(rank, labels) for labels in basis]
        for l1, m1 in zip(basis, monomials):
            for l2, m2 in zip(basis, monomials):
                sign, merged = merge_sign(l1, l2)
                assert (m1 * m2).terms == ({merged: sign} if sign else {})
