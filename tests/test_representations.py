"""Lattice and differential realizations: identities, ladders, homomorphism."""

import random
from fractions import Fraction as F
from math import comb

import pytest
from hypothesis import given
from hypothesis import strategies as st

from isospec.algebra import AlgebraElement, gen_a, gen_b, unit
from isospec.errors import BasisMismatchError, ParameterError, StepMismatchError
from isospec.polynomials import Polynomial, quasi_basis, quasi_monomial
from isospec import verify
from isospec.representations import (
    ShiftOperator,
    _stirling_rows,
    apply_continuum,
    backward_difference,
    forward_difference,
    lattice_raising,
    realize_lattice,
)

STEPS = (F(1), F(-1), F(1, 2), F(3, 7))

A = gen_a()
B = gen_b()

coeffs = st.fractions(min_value=-4, max_value=4, max_denominator=3)
exponents = st.tuples(st.integers(0, 2), st.integers(0, 2))
elements = st.dictionaries(exponents, coeffs, max_size=2).map(AlgebraElement)
steps = st.sampled_from(STEPS)


class TestRealize:
    def test_lowering_is_forward_difference(self):
        for step in STEPS:
            inv = F(1) / step
            expected = ShiftOperator(step, {1: Polynomial.constant(inv),
                                            0: Polynomial.constant(-inv)})
            assert realize_lattice(A, step) == expected == forward_difference(step)

    def test_raising_is_one_term(self):
        for step in STEPS:
            assert realize_lattice(B, step) == ShiftOperator(step, {-1: Polynomial.identity()})

    def test_grading_element(self):
        for step in STEPS:
            expected = ShiftOperator(step, {
                0: Polynomial((0, F(1) / step)),
                -1: Polynomial((0, F(-1) / step)),
            })
            assert realize_lattice(B * A, step) == expected

    def test_scalars_realize_as_multiples_of_identity(self):
        assert realize_lattice(unit(F(3, 2)), 1) == F(3, 2) * ShiftOperator.identity(1)


class TestCompose:
    def test_raising_squares_to_ladder(self):
        for step in STEPS:
            b_op = lattice_raising(step)
            expected = ShiftOperator(step, {-2: quasi_monomial(2, step)})
            assert b_op * b_op == expected

    def test_identity_is_neutral(self):
        op = realize_lattice(B * A + unit(2), F(1, 2))
        ident = ShiftOperator.identity(F(1, 2))
        assert ident * op == op
        assert op * ident == op

    def test_commutator_is_identity(self):
        for step in STEPS:
            a_op = forward_difference(step)
            b_op = lattice_raising(step)
            assert a_op.commutator(b_op) == ShiftOperator.identity(step)

    def test_forward_backward_identity(self):
        for step in STEPS:
            dp, dm = forward_difference(step), backward_difference(step)
            assert dp - dm == step * (dm * dp)

    def test_step_mismatch_refused(self):
        with pytest.raises(StepMismatchError):
            forward_difference(1) * forward_difference(F(1, 2))

    def test_power(self):
        dp = forward_difference(1)
        assert dp ** 2 == dp * dp
        assert dp ** 0 == ShiftOperator.identity(1)


class TestApply:
    def test_lowering_acts_as_ladder_derivative(self):
        for step in STEPS:
            a_op = forward_difference(step)
            for n in range(1, 21):
                assert a_op.apply(quasi_monomial(n, step)) == n * quasi_monomial(n - 1, step)

    def test_raising_climbs_ladder(self):
        for step in STEPS:
            b_op = lattice_raising(step)
            for n in range(21):
                assert b_op.apply(quasi_monomial(n, step)) == quasi_monomial(n + 1, step)

    def test_identity_application(self):
        p = Polynomial((1, 2, 3))
        assert ShiftOperator.identity(F(3, 7)).apply(p) == p

    def test_rejects_quasi_tagged_input(self):
        with pytest.raises(BasisMismatchError):
            forward_difference(1).apply(Polynomial((1, 1), quasi_basis(1)))


class TestContinuum:
    def test_lowering_differentiates(self):
        assert apply_continuum(A, Polynomial.unit_vector(3)) == Polynomial((0, 0, 3))

    def test_grading_scales_by_degree(self):
        assert apply_continuum(B * A, Polynomial.unit_vector(3)) == 3 * Polynomial.unit_vector(3)

    def test_spin_two_raising_on_square(self):
        e = B * B * A - 2 * B
        assert apply_continuum(e, Polynomial((0, 0, 1))).is_zero

    def test_mixed_element(self):
        e = B * B * A - 2 * B
        # on x: x^2*1 - 2x^2... b^2 a x = x^2; -2b x = -2x^2
        assert apply_continuum(e, Polynomial((0, 1))) == -1 * Polynomial.unit_vector(2)


def fock_ladder(step, top):
    """b^0 1, ..., b^top 1 by one walk of the lattice raising operator."""
    b_op, rungs = lattice_raising(step), [Polynomial.constant(1)]
    for _ in range(top):
        rungs.append(b_op.apply(rungs[-1]))
    return rungs


class TestFock:
    def test_vacuum_is_constant(self):
        assert fock_ladder(F(1, 2), 0) == [Polynomial.constant(1)]
        assert forward_difference(F(1, 2)).apply(Polynomial.constant(1)).is_zero

    def test_first_rung(self):
        assert fock_ladder(1, 1)[1] == Polynomial.identity()

    def test_third_rung_unit_step(self):
        assert fock_ladder(1, 3)[3] == Polynomial((0, 2, -3, 1))  # x(x-1)(x-2)

    def test_matches_ladder_polynomials(self):
        for step in STEPS:
            for n, vec in enumerate(fock_ladder(step, 20)):
                assert vec == quasi_monomial(n, step)
                assert vec.degree == n
                assert n == 0 or vec.leading == 1

    def test_heisenberg_suite_catches_a_wrong_raising_operator(self, monkeypatch):
        # (x + step) * T^-1 sends the constant to x + step, not to x
        monkeypatch.setattr(verify, "lattice_raising",
                            lambda step: ShiftOperator(step, {-1: Polynomial((step, 1))}))
        failed = [c.name for c in verify.run_suite("heisenberg").checks if not c.passed]
        assert failed == ["ladder action on quasi-monomials up to degree 20",
                          "iterated raising of the constant equals the quasi-monomial"]


@given(elements, elements, steps, st.integers(0, 8))
def test_realization_is_a_homomorphism(u, v, step, degree):
    product = realize_lattice(u * v, step)
    mono = Polynomial.unit_vector(degree)
    left = realize_lattice(u, step)
    right = realize_lattice(v, step)
    assert product.apply(mono) == left.apply(right.apply(mono))


def test_realization_homomorphism_high_degree():
    rng = random.Random(5)
    for _ in range(10):
        u = AlgebraElement({
            (rng.randint(0, 3), rng.randint(0, 3)): F(rng.randint(-5, 5), rng.randint(1, 4))
            for _ in range(2)
        })
        v = AlgebraElement({
            (rng.randint(0, 3), rng.randint(0, 3)): F(rng.randint(-5, 5), rng.randint(1, 4))
            for _ in range(2)
        })
        for step in STEPS:
            product = realize_lattice(u * v, step)
            left, right = realize_lattice(u, step), realize_lattice(v, step)
            for degree in range(13):
                mono = Polynomial.unit_vector(degree)
                assert product.apply(mono) == left.apply(right.apply(mono))


def substituted(element, step):
    """The substitution a -> forward difference, b -> x*T^{-1}, multiplied out
    in the skew product: the reference for realize_lattice's closed form."""
    out = ShiftOperator.zero(step)
    for (m, n), c in element.terms.items():
        out = out + c * (lattice_raising(step) ** m * forward_difference(step) ** n)
    return out


class TestClosedForm:
    @given(st.dictionaries(st.tuples(st.integers(0, 6), st.integers(0, 6)), coeffs, max_size=4)
           .map(AlgebraElement),
           st.sampled_from((F(1), F(-1), F(1, 2), F(3, 7), F(-5, 3))))
    def test_equals_the_skew_product_substitution(self, element, step):
        assert realize_lattice(element, step) == substituted(element, step)

    def test_zero_element_gives_the_zero_operator(self):
        for step in STEPS:
            op = realize_lattice(AlgebraElement({}), step)
            assert op == ShiftOperator.zero(step) and op.is_zero

    @pytest.mark.parametrize("element", [B * A + unit(2), AlgebraElement({})],
                             ids=["generic", "zero"])
    def test_step_is_validated(self, element):
        with pytest.raises(ParameterError):
            realize_lattice(element, 0)
        with pytest.raises(TypeError):
            realize_lattice(element, 0.5)


def polynomial_closed_form(element, step):
    """The closed form on Polynomial values, each x^(m) from quasi_monomial:
    the reference for realize_lattice's single integer pass."""
    out = {}
    for (m, n), c in element.terms.items():
        rung = quasi_monomial(m, step)
        for i in range(n + 1):
            term = ((-1) ** (n - i) * comb(n, i) * c / step**n) * rung
            out[i - m] = out[i - m] + term if i - m in out else term
    return ShiftOperator(step, out)


class TestIntegerPass:
    @given(st.dictionaries(st.tuples(st.integers(0, 12), st.integers(0, 12)),
                           st.fractions(min_value=-9, max_value=9, max_denominator=9), max_size=5)
           .map(AlgebraElement),
           st.sampled_from((F(1), F(-1), F(3, 7), F(-5, 3), F(9, 8))))
    def test_equals_the_polynomial_closed_form(self, element, step):
        assert realize_lattice(element, step) == polynomial_closed_form(element, step)

    @pytest.mark.parametrize("step", (F(1), F(-1), F(3, 7), F(-5, 3), F(9, 8)))
    def test_stirling_rows_scaled_by_the_step_are_the_quasi_monomials(self, step):
        rows = _stirling_rows(25)
        assert len(rows) == 26
        for m, row in enumerate(rows):
            assert [s * step ** (m - j) for j, s in enumerate(row)] == list(
                quasi_monomial(m, step).coeffs)

    def test_a_single_high_term_has_the_expected_denominators(self):
        # b^3 a^3 at step -5/3: (-3/5)^3 * sum_i (-1)^(3-i) C(3,i) x^(3) T^(i-3)
        step = F(-5, 3)
        op = realize_lattice(B ** 3 * A ** 3, step)
        rung = quasi_monomial(3, step)
        for i in range(4):
            assert op.coefficient(i - 3) == (-1) ** (3 - i) * comb(3, i) / step ** 3 * rung


class TestSerialization:
    def test_round_trip_sorted_shifts(self):
        op = realize_lattice(B * A + unit(F(-2, 3)), F(3, 7))
        blob = op.to_json_obj()
        assert blob["delta"] == "3/7"
        assert [t["shift"] for t in blob["terms"]] == sorted(t["shift"] for t in blob["terms"])
        assert ShiftOperator.from_json_obj(blob) == op

    def test_zero_operator(self):
        op = ShiftOperator.zero(1)
        assert op.is_zero and op.width == 0 and op.n_points == 0
        assert ShiftOperator.from_json_obj(op.to_json_obj()) == op
