"""Normal-ordered arithmetic: identities, rewrites, sl2 structure."""

from fractions import Fraction as F

import pytest
from hypothesis import given
from hypothesis import strategies as st

from isospec.algebra import (
    AlgebraElement,
    gen_a,
    gen_b,
    sl2_generator,
    unit,
    zero,
)
from isospec.polynomials import Polynomial
from isospec.representations import apply_continuum

A = gen_a()
B = gen_b()

coeffs = st.fractions(min_value=-5, max_value=5, max_denominator=4)
exponents = st.tuples(st.integers(0, 3), st.integers(0, 3))
elements = st.dictionaries(exponents, coeffs, max_size=3).map(AlgebraElement)


def composition_agrees(product, left, right, max_degree=20):
    """Oracle: the normal-ordered product must act like apply-left-after-right."""
    for d in range(max_degree + 1):
        mono = Polynomial.unit_vector(d)
        if apply_continuum(product, mono) != apply_continuum(left, apply_continuum(right, mono)):
            return False
    return True


class TestAdd:
    def test_additive_inverse_cancels(self):
        assert (A + (-1) * A).is_zero

    def test_doubling(self):
        assert B + B == 2 * B

    def test_constant_survives_cancellation(self):
        assert (B * A + unit(1)) + (-1) * (B * A) == unit(1)

    def test_zero_coefficients_are_dropped(self):
        e = AlgebraElement({(1, 0): F(1), (2, 2): F(0)})
        assert e == B
        assert e.terms == {(1, 0): F(1)}


class TestMul:
    def test_ab_normal_orders(self):
        assert A * B == B * A + unit(1)
        assert (A * B).terms == {(1, 1): F(1), (0, 0): F(1)}

    def test_ba_already_normal(self):
        assert (B * A).terms == {(1, 1): F(1)}

    def test_a2_b2(self):
        product = (A * A) * (B * B)
        expected = AlgebraElement({(2, 2): 1, (1, 1): 4, (0, 0): 2})
        assert composition_agrees(expected, A * A, B * B, max_degree=5)
        assert product == expected

    def test_scalar_multiples(self):
        assert F(1, 2) * (A * B) == AlgebraElement({(1, 1): F(1, 2), (0, 0): F(1, 2)})

    def test_power(self):
        assert B ** 3 == B * B * B
        assert A ** 0 == unit(1)


class TestCommutator:
    def test_defining_relation(self):
        assert A.commutator(B) == unit(1)

    def test_self_commutator_vanishes(self):
        assert B.commutator(B).is_zero

    def test_grading_relation(self):
        got = (B * A).commutator(A)
        assert got == -1 * A
        # cross-check against the differential realization
        for d in range(8):
            mono = Polynomial.unit_vector(d)
            lhs = apply_continuum(B * A, apply_continuum(A, mono))
            rhs = apply_continuum(A, apply_continuum(B * A, mono))
            assert apply_continuum(got, mono) == lhs - rhs


class TestSl2:
    def test_minus_is_lowering(self):
        assert sl2_generator("minus", 0) == A

    def test_zero_at_spin_zero(self):
        assert sl2_generator("zero", 0) == B * A

    def test_plus_at_spin_two(self):
        assert sl2_generator("plus", 2) == B * B * A - 2 * B

    def test_half_integer_coefficient(self):
        assert sl2_generator("zero", 3).coefficient(0, 0) == F(-3, 2)

    @pytest.mark.parametrize("spin", range(7))
    def test_bracket_relations(self, spin):
        jp = sl2_generator("plus", spin)
        jz = sl2_generator("zero", spin)
        jm = sl2_generator("minus", spin)
        assert jz.commutator(jm) == -1 * jm
        assert jz.commutator(jp) == jp
        assert jp.commutator(jm) == -2 * jz

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            sl2_generator("plus", -1)
        with pytest.raises(ValueError):
            sl2_generator("sideways", 2)


@given(elements, elements)
def test_products_realize_composition(u, v):
    assert composition_agrees(u * v, u, v, max_degree=8)


@given(elements, elements, elements)
def test_multiplication_is_associative(u, v, w):
    assert (u * v) * w == u * (v * w)


@given(elements, elements, elements)
def test_multiplication_distributes(u, v, w):
    assert u * (v + w) == u * v + u * w
    assert (u + v) * w == u * w + v * w


def test_fixed_high_degree_composition():
    u = AlgebraElement({(3, 2): F(2, 3), (0, 1): -2})
    v = AlgebraElement({(2, 3): F(-1, 2), (1, 0): 5})
    assert composition_agrees(u * v, u, v, max_degree=20)


def test_json_round_trip():
    e = AlgebraElement({(2, 1): F(1), (1, 0): F(-2), (0, 0): F(3, 7)})
    blob = e.to_json_obj()
    assert blob == [
        {"m": 0, "n": 0, "coeff": "3/7"},
        {"m": 1, "n": 0, "coeff": "-2"},
        {"m": 2, "n": 1, "coeff": "1"},
    ]
    assert AlgebraElement.from_json_obj(blob) == e


def test_repr_is_readable():
    assert str(zero()) == "0"
    assert str(B * B * A - 2 * B) == "b^2*a - 2*b"
