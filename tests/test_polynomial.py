from functools import reduce
from math import comb
from operator import mul

import pytest
from hypothesis import given
from hypothesis import strategies as st

from descpoly.polynomial import IntPoly, geometric

from oracles import geometric_power_coefficient

small_polys = st.lists(st.integers(-9, 9), max_size=6).map(IntPoly)


def test_normalization_trims_trailing_zeros():
    assert IntPoly((1, 2, 0, 0)).coeffs == (1, 2)
    assert IntPoly((0, 0)).coeffs == ()
    assert IntPoly().is_zero()


def test_non_integer_coefficients_rejected():
    with pytest.raises(TypeError):
        IntPoly((1.5, 2))
    with pytest.raises(TypeError):
        IntPoly((1, 2.0))
    with pytest.raises(TypeError):
        IntPoly(["1"])
    assert IntPoly((True, 2)).coeffs == (1, 2)


@pytest.mark.parametrize(
    "op",
    [
        lambda p: p * 1.5,
        lambda p: 1.5 * p,
        lambda p: p + "a",
        lambda p: "a" + p,
        lambda p: p - 1.5,
        lambda p: 1.5 - p,
    ],
    ids=["mul", "rmul", "add", "radd", "sub", "rsub"],
)
def test_foreign_operands_raise_type_error(op):
    with pytest.raises(TypeError):
        op(IntPoly((1, 2)))


def test_int_compares_as_constant_polynomial():
    assert IntPoly((3,)) == 3
    assert 3 == IntPoly((3,))
    assert IntPoly() == 0
    assert 0 == IntPoly()
    assert IntPoly((-7,)) == -7
    assert IntPoly((3,)) != 4
    assert IntPoly((3, 1)) != 3
    assert 3 != IntPoly((0, 3))
    assert IntPoly() != 1
    assert IntPoly((1,)) != "1"
    assert IntPoly((1,)) != 1.0
    assert IntPoly((1,)).__eq__(1.0) is NotImplemented


def test_hash_agrees_with_int_equality():
    assert hash(IntPoly((3,))) == hash(3)
    assert hash(IntPoly((-1,))) == hash(-1)
    assert hash(IntPoly()) == hash(0)
    assert hash(IntPoly((2**100,))) == hash(2**100)
    assert {IntPoly((3,)): "p"}[3] == "p"
    assert len({0, IntPoly(), 5, IntPoly((5,)), IntPoly((5, 1))}) == 3


def test_degree_sentinel():
    assert IntPoly().degree is None
    assert IntPoly((7,)).degree == 0
    assert IntPoly((0, 0, 3)).degree == 2


def test_add_identity():
    p = IntPoly((1, 1))
    assert p + IntPoly() == p
    assert IntPoly() + p == p


def test_mul_hand_expansion():
    assert IntPoly((1, 1)) * IntPoly((1, 1, 1)) == IntPoly((1, 2, 2, 1))


def test_pow_matches_binomial_theorem():
    # oracle: binomial theorem via math.comb
    for e in range(7):
        assert (IntPoly((1, 1)) ** e).coeffs == tuple(comb(e, j) for j in range(e + 1))


def test_pow_negative_exponent_rejected():
    with pytest.raises(ValueError):
        IntPoly((1, 1)) ** -1


def test_pow_zero_constant_term():
    # (u^2 (2 + u))^5 = u^10 (2 + u)^5
    expected = (0,) * 10 + tuple(comb(5, j) * 2 ** (5 - j) for j in range(6))
    assert (IntPoly((0, 0, 2, 1)) ** 5).coeffs == expected


def test_pow_negative_terms():
    # (3 - u^2)^4: negative leading term; (-2 + u)^6: negative constant term
    assert (IntPoly((3, 0, -1)) ** 4).coeffs == tuple(
        comb(4, j // 2) * 3 ** (4 - j // 2) * (-1) ** (j // 2) if j % 2 == 0 else 0
        for j in range(9)
    )
    assert (IntPoly((-2, 1)) ** 6).coeffs == tuple(comb(6, j) * (-2) ** (6 - j) for j in range(7))


def test_pow_sparse_base():
    # (u^5 - 1)^7: only multiples of u^5 survive
    expected = [0] * 36
    for j in range(8):
        expected[5 * j] = comb(7, j) * (-1) ** (7 - j)
    assert (IntPoly((-1, 0, 0, 0, 0, 1)) ** 7).coeffs == tuple(expected)


def test_pow_edge_exponents():
    assert IntPoly() ** 0 == IntPoly((1,))
    assert IntPoly((0, 5, -3)) ** 0 == IntPoly((1,))
    assert IntPoly() ** 3 == IntPoly()
    p = IntPoly((0, 3, 0, -2, 7))
    assert p ** 1 == p


@given(st.lists(st.integers(-5, 5), max_size=6).map(IntPoly), st.integers(0, 10))
def test_pow_is_repeated_product(p, e):
    assert p**e == reduce(mul, [p] * e, IntPoly((1,)))


@st.composite
def palindromic_bases(draw, palindrome):
    """A power v of u and a palindrome q of odd or even length (a random
    half, an optional middle, the half mirrored); with ``palindrome=False``
    the top coefficient is redrawn so that the same-length q is not one."""
    half = [draw(st.integers(-9, 9).filter(bool))] + draw(st.lists(st.integers(-9, 9), max_size=4))
    q = half + draw(st.lists(st.integers(-9, 9), max_size=1)) + half[::-1]
    if not palindrome:
        q[-1] = draw(st.integers(-9, 9).filter(lambda c: c not in (0, q[0])))
    return draw(st.integers(0, 3)), q


@pytest.mark.parametrize("palindrome", [True, False], ids=["palindrome", "control"])
@given(data=st.data(), e=st.integers(0, 10))
def test_pow_of_a_palindromic_base_is_repeated_product(palindrome, data, e):
    v, q = data.draw(palindromic_bases(palindrome))
    assert (q == q[::-1]) is palindrome
    p = IntPoly([0] * v + q)
    power = p**e
    assert power == reduce(mul, [p] * e, IntPoly((1,)))
    if palindrome:
        assert power.coeffs[v * e :] == power.coeffs[v * e :][::-1]


# (1+u+...+u^k)^N at the largest closed-form rows perfbench runs (n = 1000
# at k = 2, n = 120 at k = 12), and one odd degree k*N, where no middle
# coefficient exists and the mirror starts right after the stepped half
@pytest.mark.parametrize("k, N", [(2, 998), (12, 108), (3, 333)])
def test_geometric_power_at_scale_matches_inclusion_exclusion(k, N):
    power = geometric(k) ** N
    top = k * N
    assert power.degree == top
    h = top // 2
    for m in sorted({0, 1, h - 1, h, h + 1, h + 2, top - 1, top}):
        assert power.coefficient(m) == geometric_power_coefficient(k, N, m), m


def test_geometric():
    assert geometric(0) == IntPoly((1,))
    assert geometric(2) == IntPoly((1, 1, 1))
    assert geometric(4) == IntPoly((1,) * 5)
    with pytest.raises(ValueError):
        geometric(-1)


def test_substitute_power():
    assert IntPoly((1, 1)).substitute_power(5).coeffs == (1, 0, 0, 0, 0, 1)
    assert IntPoly((1, 4, 1)).substitute_power(3).coeffs == (1, 0, 0, 4, 0, 0, 1)
    p = IntPoly((2, -3, 5))
    assert p.substitute_power(1) == p


def test_multisect():
    assert IntPoly((1, 3, 3, 1)).multisect(2) == IntPoly((1, 3))
    assert IntPoly((1, 1, 1, 1, 1, 1)).multisect(3) == IntPoly((1, 1))
    p = IntPoly((4, 0, -2, 7))
    assert p.multisect(1) == p


def test_symmetry_and_unimodality():
    assert IntPoly((1, 1, 2, 1, 1)).is_symmetric()
    assert not IntPoly((1, 2)).is_symmetric()
    assert IntPoly((1, 2, 2, 1)).is_unimodal()
    assert not IntPoly((1, 3, 1, 3, 1)).is_unimodal()
    with pytest.raises(ValueError):
        IntPoly().is_symmetric()
    with pytest.raises(ValueError):
        IntPoly().is_unimodal()


def test_evaluate():
    assert IntPoly((1, 3, 3, 1)).evaluate(1) == 8
    assert IntPoly((1, 0, -2)).evaluate(3) == -17
    assert IntPoly().evaluate(5) == 0


def test_pretty():
    assert IntPoly((1, 0, 2, -1)).pretty() == "1 + 2u^2 - u^3"
    assert IntPoly().pretty() == "0"
    assert IntPoly((0, -1)).pretty("y") == "-y"


@given(small_polys, small_polys)
def test_add_commutes(p, q):
    assert p + q == q + p


@given(small_polys, small_polys)
def test_mul_commutes(p, q):
    assert p * q == q * p


@given(small_polys, small_polys, small_polys)
def test_mul_associates_and_distributes(p, q, r):
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r


@given(small_polys, st.integers(1, 4))
def test_multisect_inverts_substitute_power(p, m):
    assert p.substitute_power(m).multisect(m) == p


# operands of the strided product: negative coefficients, the zero
# polynomial and one-term polynomials, short and long enough to leave every
# residue class mod step populated
one_term = st.tuples(st.integers(0, 8), st.integers(-9, 9).filter(bool)).map(
    lambda t: IntPoly((0,) * t[0] + (t[1],))
)
operands = st.one_of(
    st.lists(st.integers(-9, 9), max_size=20).map(IntPoly), one_term, st.just(IntPoly())
)


def _convolution(a, b):
    # the product straight from its definition, sharing no code with IntPoly
    size = len(a.coeffs) + len(b.coeffs)
    return IntPoly(
        sum(a.coefficient(i) * b.coefficient(t - i) for i in range(t + 1)) for t in range(size)
    )


@given(operands, operands, st.integers(1, 6))
def test_strided_product_is_multisected_product(a, b, step):
    want = _convolution(a, b).multisect(step)
    assert a.product(b, step) == (a * b).multisect(step) == want


def test_strided_product_examples():
    p = IntPoly((1, 1, 1))
    assert p.product(p, 2) == IntPoly((1, 3, 1))
    assert p.product(p, 3) == IntPoly((1, 2))
    assert p.product(p, 5) == IntPoly((1,))
    assert IntPoly((0, 1)).product(IntPoly((0, 0, 2)), 3) == IntPoly((0, 2))
    assert IntPoly((0, 1)).product(IntPoly((0, 0, 0, 2)), 3) == IntPoly()
    assert p.product(IntPoly(), 2) == IntPoly()
    with pytest.raises(ValueError):
        p.product(p, 0)


@given(st.integers(0, 30))
def test_geometric_at_one(k):
    assert geometric(k).evaluate(1) == k + 1
