"""Polynomial values, quasi-monomial ladders and basis conversion."""

from fractions import Fraction as F

import pytest
from hypothesis import given
from hypothesis import strategies as st

from isospec.errors import BasisMismatchError, ParameterError
from isospec.polynomials import (
    MONOMIAL,
    Basis,
    Polynomial,
    convert_basis,
    quasi_basis,
    quasi_monomial,
)

steps = st.sampled_from([F(1), F(-1), F(1, 2), F(3, 7), F(-2, 5)])
coeffs = st.fractions(min_value=-9, max_value=9, max_denominator=6)
vectors = st.lists(coeffs, max_size=16)
# negative steps and denominators up to 9; dense vectors whose entries have
# different denominators, zero entries, all-zero and empty vectors among them
wide_steps = st.builds(F, st.integers(-9, 9).filter(bool), st.integers(1, 9))
dense_vectors = st.lists(st.builds(F, st.integers(-40, 40), st.integers(1, 9)), max_size=14)


def trimmed(vec):
    vec = list(vec)
    while vec and not vec[-1]:
        vec.pop()
    return tuple(vec)


# Fraction reference algorithms, one Fraction operation at a time: the
# integer kernels must reproduce them exactly


def fraction_newton_horner(vec, step):
    """Ladder -> monomial: acc <- acc*(x - k*step) + c_k from the top."""
    acc = []
    for k in range(len(vec) - 1, -1, -1):
        nxt = [F(0)] + acc
        for i, a in enumerate(acc):
            nxt[i] -= k * step * a
        nxt[0] += vec[k]
        acc = nxt
    return trimmed(acc)


def fraction_synthetic_division(vec, step):
    """Monomial -> ladder: the remainders of repeated division by x - k*step."""
    rest, out = list(vec), []
    for k in range(len(rest)):
        for i in range(len(rest) - 2, -1, -1):
            rest[i] += k * step * rest[i + 1]
        out.append(rest.pop(0))
    return trimmed(out)


def fraction_taylor_shift(vec, amount):
    """p(x + amount) by repeated synthetic division by x - amount."""
    out = list(vec)
    for i in range(len(out) - 1):
        for j in range(len(out) - 2, i - 1, -1):
            out[j] += amount * out[j + 1]
    return trimmed(out)


class TestQuasiMonomial:
    def test_empty_product_is_one(self):
        assert quasi_monomial(0, 1) == Polynomial.constant(1)

    def test_degree_two_unit_step(self):
        assert quasi_monomial(2, 1) == Polynomial((0, -1, 1))  # x^2 - x

    def test_degree_three_half_step(self):
        # x(x - 1/2)(x - 1)
        assert quasi_monomial(3, F(1, 2)) == Polynomial((0, F(1, 2), F(-3, 2), 1))

    def test_monic_of_exact_degree(self):
        for n in range(12):
            poly = quasi_monomial(n, F(3, 7))
            assert poly.degree == n
            assert poly.leading == 1

    def test_zero_step_rejected(self):
        with pytest.raises(ParameterError):
            quasi_monomial(3, 0)


class TestConvertBasis:
    def test_square_to_ladder(self):
        p = Polynomial((0, 0, 1))
        q = convert_basis(p, quasi_basis(1))
        assert q.coeffs == (0, 1, 1)  # x^2 = x^(2) + x^(1)

    def test_identity_conversion(self):
        p = Polynomial((1, 2, 3))
        assert convert_basis(p, MONOMIAL) is p

    def test_ladder_unit_vector_expands(self):
        step = F(1, 2)
        for n in range(8):
            vec = Polynomial.unit_vector(n, quasi_basis(step))
            assert convert_basis(vec, MONOMIAL) == quasi_monomial(n, step)

    def test_mismatched_steps_refused(self):
        p = Polynomial((1, 1), quasi_basis(1))
        with pytest.raises(BasisMismatchError):
            convert_basis(p, quasi_basis(F(1, 2)))

    @given(vectors, steps)
    def test_round_trip_is_identity(self, vec, step):
        p = Polynomial(vec)
        there = convert_basis(p, quasi_basis(step))
        assert convert_basis(there, MONOMIAL) == p

    @given(vectors, steps)
    def test_ladder_to_monomial_sums_the_expanded_rungs(self, vec, step):
        p = Polynomial(vec, quasi_basis(step))
        expected = Polynomial.zero()
        for k, c in enumerate(vec):
            expected = expected + c * quasi_monomial(k, step)
        assert convert_basis(p, MONOMIAL) == expected

    @given(vectors, steps)
    def test_degree_is_preserved(self, vec, step):
        p = Polynomial(vec)
        assert convert_basis(p, quasi_basis(step)).degree == p.degree

    @given(dense_vectors, wide_steps)
    def test_ladder_to_monomial_matches_fraction_newton_horner(self, vec, step):
        p = Polynomial(vec, quasi_basis(step))
        assert convert_basis(p, MONOMIAL).coeffs == fraction_newton_horner(vec, step)

    @given(dense_vectors, wide_steps)
    def test_monomial_to_ladder_matches_fraction_synthetic_division(self, vec, step):
        q = convert_basis(Polynomial(vec), quasi_basis(step))
        assert q.coeffs == fraction_synthetic_division(vec, step)
        assert q.basis == quasi_basis(step)

    def test_zero_polynomial_converts_to_zero(self):
        ladder = quasi_basis(F(-4, 9))
        for source, target in ((MONOMIAL, ladder), (ladder, MONOMIAL)):
            for vec in ((), (0, 0)):
                assert convert_basis(Polynomial(vec, source), target) == Polynomial.zero(target)

    @given(vectors, steps, st.integers(-6, 6))
    def test_conversion_preserves_values(self, vec, step, j):
        p = Polynomial(vec)
        q = convert_basis(p, quasi_basis(step))
        point = j * step
        assert p(point) == q(point)


class TestArithmetic:
    def test_trailing_zeros_trimmed(self):
        assert Polynomial((1, 2, 0, 0)).coeffs == (1, 2)
        assert Polynomial((0,)).is_zero
        assert Polynomial(()).degree == -1

    def test_product(self):
        x = Polynomial.identity()
        assert (x + Polynomial.constant(1)) * (x - Polynomial.constant(1)) == Polynomial((-1, 0, 1))

    def test_product_requires_monomial_basis(self):
        p = Polynomial((1, 1), quasi_basis(1))
        with pytest.raises(BasisMismatchError):
            p * p

    def test_cross_basis_addition_refused(self):
        with pytest.raises(BasisMismatchError):
            Polynomial((1,)) + Polynomial((1,), quasi_basis(1))

    def test_shift_by_one(self):
        assert Polynomial((0, 0, 1)).shifted(1) == Polynomial((1, 2, 1))

    @given(vectors, coeffs)
    def test_taylor_shift_matches_horner_substitution(self, vec, amount):
        # same degree and equal at degree + 1 distinct points fixes the polynomial
        p = Polynomial(vec)
        q = p.shifted(amount)
        assert q.degree == p.degree
        for x in (F(2 * i - 5, 3) for i in range(p.degree + 1)):
            assert q(x) == p(x + amount)

    @given(dense_vectors, wide_steps | st.just(F(0)))
    def test_shift_matches_the_fraction_taylor_shift(self, vec, amount):
        assert Polynomial(vec).shifted(amount).coeffs == fraction_taylor_shift(vec, amount)

    def test_identity_shifts_return_the_polynomial_itself(self):
        for p, amount in [(Polynomial((1, 2, 3)), 0), (Polynomial.constant(F(5, 2)), F(7, 3)),
                          (Polynomial.zero(), 1)]:
            assert p.shifted(amount) is p

    def test_shift_checks_basis_and_amount_first(self):
        with pytest.raises(BasisMismatchError):
            Polynomial((1,), quasi_basis(1)).shifted(0)
        with pytest.raises(TypeError):
            Polynomial.constant(1).shifted(0.0)

    def test_evaluate_monomial(self):
        p = Polynomial((1, -3, 2))
        assert p(F(1, 2)) == 1 - F(3, 2) + F(1, 2)

    def test_evaluate_quasi(self):
        # 2*x^(2) + 3 at step 1: 2*x(x-1) + 3
        p = Polynomial((3, 0, 2), quasi_basis(1))
        assert p(4) == 2 * 4 * 3 + 3

    def test_power(self):
        x = Polynomial.identity()
        assert (x + Polynomial.constant(1)) ** 2 == Polynomial((1, 2, 1))


class TestSerialization:
    def test_monomial_round_trip(self):
        p = Polynomial((F(1, 2), 0, -2))
        blob = p.to_json_obj()
        assert blob == {"basis": "monomial", "coeffs": ["1/2", "0", "-2"]}
        assert Polynomial.from_json_obj(blob) == p

    def test_quasi_round_trip(self):
        p = Polynomial((1, -1), quasi_basis(F(-3, 7)))
        blob = p.to_json_obj()
        assert blob["basis"] == {"quasi": "-3/7"}
        assert Polynomial.from_json_obj(blob) == p


def test_basis_validation():
    with pytest.raises(ParameterError):
        Basis(F(0))
    assert Basis().is_monomial
    assert not quasi_basis(1).is_monomial
