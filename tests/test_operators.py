"""Operator families: builders, closed forms, presets."""

import random
from fractions import Fraction as F

import pytest
from hypothesis import given
from hypothesis import strategies as st

from isospec.algebra import AlgebraElement, gen_a, gen_b, sl2_generator
from isospec.errors import ParameterError
from isospec.operators import (
    QesQuadraticForm,
    SecondOrderParams,
    ThreePointParams,
    classical_preset,
    discrete_preset,
    eigenvalue_convention_note,
    qes_quadratic_element,
    qes_three_point_element,
    qes_three_point_operator,
    second_order_element,
    second_order_stencil,
    three_point_diagonal,
    three_point_element,
    three_point_operator,
    three_point_stencil,
)
from isospec.oracles import family
from isospec.polynomials import Polynomial
from isospec.representations import ShiftOperator, realize_lattice

STEPS = (F(1), F(-1), F(1, 2), F(3, 7))

A = gen_a()
B = gen_b()

fractions = st.fractions(min_value=-9, max_value=9, max_denominator=5)


def rand_fraction(rng, nonzero=False):
    while True:
        value = F(rng.randint(-9, 9), rng.randint(1, 5))
        if value or not nonzero:
            return value


class TestSecondOrder:
    def test_hermite_element(self):
        params = SecondOrderParams(0, 0, -1, -2, 0, 0)
        assert second_order_element(params) == A * A - 2 * (B * A)

    def test_all_zero(self):
        assert second_order_element(SecondOrderParams(0, 0, 0, 0, 0, 0)).is_zero

    def test_pure_leading_coefficient(self):
        params = SecondOrderParams(1, 0, 0, 0, 0, 0)
        assert second_order_element(params) == -1 * (B * B * A * A)

    def test_realization_matches_closed_form(self):
        rng = random.Random(0)
        for _ in range(20):
            params = SecondOrderParams(*(rand_fraction(rng) for _ in range(6)))
            for step in STEPS:
                assert realize_lattice(second_order_element(params), step) \
                    == second_order_stencil(params, step)

    def test_constant_term_lands_on_the_center_bracket(self):
        params = SecondOrderParams(0, 0, 0, 0, 0, F(5, 3))
        stencil = second_order_stencil(params, 1)
        assert stencil == F(5, 3) * ShiftOperator.identity(1)

    def test_diagonal_formula(self):
        rng = random.Random(1)
        params = SecondOrderParams(*(rand_fraction(rng) for _ in range(6)))
        element = second_order_element(params)
        from isospec.representations import apply_continuum

        for k in range(8):
            image = apply_continuum(element, Polynomial.unit_vector(k))
            diagonal = -params.a0 * k * (k - 1) + params.b0 * k + params.c0
            assert image.coefficient(k) == diagonal


class TestClassicalPresets:
    def test_hermite_values(self):
        assert classical_preset("hermite").as_tuple() == (0, 0, -1, -2, 0, 0)

    def test_laguerre_alpha_zero(self):
        # -x d^2 + (x - 1) d
        assert classical_preset("laguerre", alpha=0).as_tuple() == (0, 1, 0, 1, -1, 0)

    def test_legendre_leading(self):
        params = classical_preset("legendre")
        assert (params.a0, params.a1, params.a2) == (1, 0, -1)  # Q2 = x^2 - 1

    def test_jacobi_reduces_to_legendre(self):
        assert classical_preset("jacobi", alpha=0, beta=0).as_tuple() \
            == classical_preset("legendre").as_tuple()

    def test_inadmissible_parameters(self):
        with pytest.raises(ParameterError):
            classical_preset("laguerre", alpha=-1)
        with pytest.raises(ParameterError):
            classical_preset("jacobi", alpha=0, beta=F(-3, 2))
        with pytest.raises(ParameterError):
            classical_preset("nope")

    def test_eigenvalue_note_only_for_hermite(self):
        assert eigenvalue_convention_note("hermite")
        assert eigenvalue_convention_note("legendre") is None


class TestQesQuadratic:
    def test_degenerate_case_is_hermite(self):
        form = QesQuadraticForm(spin=0, minus_minus=1, zero=-2)
        assert qes_quadratic_element(form) == A * A - 2 * (B * A)

    def test_pure_raising(self):
        form = QesQuadraticForm(spin=2, plus=1)
        assert qes_quadratic_element(form) == B * B * A - 2 * B

    def test_all_zero(self):
        assert qes_quadratic_element(QesQuadraticForm(spin=3)).is_zero

    def test_matches_direct_generator_arithmetic(self):
        rng = random.Random(2)
        for spin in (1, 3):
            values = [rand_fraction(rng) for _ in range(10)]
            form = QesQuadraticForm(spin, *values)
            jp = sl2_generator("plus", spin)
            jz = sl2_generator("zero", spin)
            jm = sl2_generator("minus", spin)
            direct = (
                values[0] * (jp * jp) + values[1] * (jp * jz) + values[2] * (jp * jm)
                + values[3] * (jz * jz) + values[4] * (jz * jm) + values[5] * (jm * jm)
                + values[6] * jp + values[7] * jz + values[8] * jm
                + AlgebraElement({(0, 0): values[9]})
            )
            assert qes_quadratic_element(form) == direct

    def test_spin_validation(self):
        with pytest.raises(ParameterError):
            QesQuadraticForm(spin=-1)


class TestThreePoint:
    def test_plus_bracket(self):
        params = ThreePointParams(a1=F(2), a2=F(-3), a3=F(5), a4=F(7), a5=F(0), step=F(1, 2))
        op = three_point_operator(params)
        d = params.step
        assert op.coefficient(1) == Polynomial((params.a4 / d, params.a2 / d**2, params.a1 / d**3))

    def test_minus_bracket(self):
        params = ThreePointParams(a1=F(2), a2=F(-3), a3=F(5), a4=F(7), a5=F(0), step=F(1, 2))
        op = three_point_operator(params)
        d = params.step
        expected = Polynomial((0, -(params.a1 / d**2 - params.a2 / d**2 + params.a3 / d),
                               params.a1 / d**3))
        assert op.coefficient(-1) == expected

    def test_constant_operator(self):
        params = ThreePointParams(0, 0, 0, 0, F(4, 3), step=1)
        assert three_point_operator(params) == F(4, 3) * ShiftOperator.identity(1)

    def test_brackets_sum_to_constant(self):
        rng = random.Random(3)
        for _ in range(10):
            params = ThreePointParams(*(rand_fraction(rng) for _ in range(5)),
                                      step=STEPS[rng.randrange(4)])
            op = three_point_operator(params)
            total = Polynomial.zero()
            for k in op.shifts:
                total = total + op.coefficient(k)
            assert total == Polynomial.constant(params.a5)

    def test_realization_matches_closed_form(self):
        rng = random.Random(4)
        for _ in range(20):
            params = ThreePointParams(*(rand_fraction(rng) for _ in range(5)),
                                      step=STEPS[rng.randrange(4)])
            assert three_point_operator(params) == three_point_stencil(params)

    @given(st.tuples(fractions, fractions, fractions, fractions, fractions),
           st.sampled_from(STEPS))
    def test_support_never_exceeds_three_points(self, values, step):
        params = ThreePointParams(*values, step=step)
        assert set(three_point_operator(params).shifts) <= {-1, 0, 1}

    def test_diagonal_formula(self):
        params = ThreePointParams(a1=F(-1), a2=F(3), a3=F(1), a4=F(2), a5=F(1, 2), step=F(-1))
        op = three_point_operator(params)
        for k in range(6):
            image = op.apply(Polynomial.unit_vector(k))
            assert image.coefficient(k) == three_point_diagonal(params, k)


class TestDiscretePresets:
    def test_charlier_values(self):
        params = discrete_preset("charlier", mu=2)
        assert (params.a1, params.a2, params.a3, params.a4, params.a5) == (0, 0, -1, 2, 0)
        assert params.step == 1

    def test_meixner_values(self):
        params = discrete_preset("meixner", gamma=1, mu=F(1, 2))
        assert (params.a1, params.a2, params.a3, params.a4, params.a5) \
            == (0, F(1, 2), F(-1, 2), F(1, 2), 0)
        assert params.step == 1

    def test_hahn_values(self):
        params = discrete_preset("hahn", alpha=1, beta=2, size=5)
        assert (params.a1, params.a2, params.a3, params.a4, params.a5) \
            == (-1, 1, 4, 12, 0)
        assert params.step == -1

    def test_hahn_continued_values(self):
        params = discrete_preset("hahn-continued", mu=1, nu=2, size=4)
        assert (params.a1, params.a2, params.a3, params.a4, params.a5) \
            == (1, -8, -10, 15, 0)
        assert params.step == -1

    @pytest.mark.parametrize("params, error", [
        ({"mu": 0.5, "nu": 1, "size": 3}, TypeError),
        ({"mu": 1, "nu": True, "size": 3}, TypeError),
        ({"mu": 1, "nu": 2}, ParameterError),
        ({"mu": 1, "nu": 2, "size": 3, "alpha": 1}, ParameterError),
    ], ids=["float", "bool", "missing-size", "unexpected"])
    def test_hahn_continued_refuses_like_every_rational_boundary(self, params, error):
        # a float or bool is the TypeError it is everywhere else; only a
        # missing or unexpected keyword is a ParameterError
        with pytest.raises(error) as info:
            discrete_preset("hahn-continued", **params)
        assert type(info.value) is error

    def test_charlier_stencil_reads_like_the_classical_equation(self):
        op = three_point_operator(discrete_preset("charlier", mu=3))
        assert op.coefficient(1) == Polynomial.constant(3)
        assert op.coefficient(0) == Polynomial((-3, -1))
        assert op.coefficient(-1) == Polynomial.identity()

    def test_meixner_stencil_reads_like_the_classical_equation(self):
        gamma, mu = F(2), F(1, 3)
        op = three_point_operator(discrete_preset("meixner", gamma=gamma, mu=mu))
        assert op.coefficient(1) == Polynomial((gamma * mu, mu))
        assert op.coefficient(0) == Polynomial((-gamma * mu, -(1 + mu)))
        assert op.coefficient(-1) == Polynomial.identity()

    @pytest.mark.parametrize("gamma", [0, -1, -2])
    def test_meixner_refuses_the_gamma_its_family_refuses(self, gamma):
        # (gamma)_j vanishes at j = 1 - gamma: no meixner polynomial of that degree
        with pytest.raises(ParameterError, match="non-positive integer"):
            discrete_preset("meixner", gamma=gamma, mu=2)
        with pytest.raises(ParameterError, match="non-positive integer"):
            family("meixner", gamma=gamma, mu=2)

    def test_validation(self):
        with pytest.raises(ParameterError):
            discrete_preset("charlier", mu=0)
        with pytest.raises(ParameterError):
            discrete_preset("meixner", gamma=1, mu=1)
        with pytest.raises(ParameterError):
            discrete_preset("hahn", alpha=0, beta=0, size=1)
        with pytest.raises(ParameterError):
            discrete_preset("unknown")
        with pytest.raises(ParameterError):
            discrete_preset("hahn", alpha=0, beta=0)


def _outcome(build, name, params):
    """``"ok"``, or the ParameterError message ``build(name, **params)`` raises."""
    try:
        build(name, **params)
    except ParameterError as exc:
        return str(exc)
    return "ok"


class TestPresetsValidateThroughTheirFamily:
    @pytest.mark.parametrize("preset, name, params", [
        (discrete_preset, "hahn", {"size": 5}),
        (discrete_preset, "meixner", {"mu": 2}),
        (discrete_preset, "charlier", {}),
        (discrete_preset, "hahn", {"alpha": 1, "beta": 2}),
        (classical_preset, "laguerre", {"mu": 2}),
        (discrete_preset, "charlier", {"mu": 2, "nu": 1}),
        (discrete_preset, "hahn", {"alpha": -1, "size": 5}),
        (classical_preset, "laguerre", {"alpha": -1}),
        (discrete_preset, "meixner", {"gamma": -2, "mu": 2}),
        (discrete_preset, "meixner", {"mu": 1}),
    ], ids=["hahn-defaults", "meixner-default-gamma", "charlier-no-mu", "hahn-no-size",
            "laguerre-mu", "charlier-nu", "hahn-alpha-range", "laguerre-alpha-range",
            "meixner-gamma-range", "meixner-mu-range"])
    def test_preset_and_family_give_the_same_outcome(self, preset, name, params):
        assert _outcome(preset, name, params) == _outcome(family, name, params)

    def test_omitted_parameters_take_the_family_defaults(self):
        assert discrete_preset("hahn", size=5) == discrete_preset("hahn", alpha=0, beta=0, size=5)
        assert discrete_preset("meixner", mu=2) == discrete_preset("meixner", gamma=1, mu=2)

    @pytest.mark.parametrize("build", [
        lambda: classical_preset("laguerre", alpha=0.5),
        lambda: classical_preset("jacobi", beta=True),
        lambda: discrete_preset("meixner", gamma=1.5, mu=2),
    ], ids=["laguerre-float", "jacobi-bool", "meixner-float"])
    def test_floats_and_bools_raise_type_error(self, build):
        with pytest.raises(TypeError):
            build()


class TestQesThreePoint:
    def test_no_raising_reduces_to_plain_family(self):
        rng = random.Random(6)
        params = ThreePointParams(*(rand_fraction(rng) for _ in range(5)), step=F(1, 2))
        assert qes_three_point_operator(0, params, 0) == three_point_operator(params)

    def test_spin_zero_element_extends_plain_family(self):
        params = ThreePointParams(F(1), F(2), F(3), F(4), F(5), step=1)
        extended = qes_three_point_element(0, params, 0)
        assert extended == three_point_element(params)

    def test_algebra_route_equals_lattice_route(self):
        # independent construction: realize the generators first, then compose
        # with shift-operator arithmetic only
        rng = random.Random(7)
        for spin in (0, 1, 2):
            step = STEPS[spin % 4]
            params = ThreePointParams(*(rand_fraction(rng) for _ in range(5)), step=step)
            a_plus = rand_fraction(rng, nonzero=True)
            jp = realize_lattice(sl2_generator("plus", spin), step)
            jz = realize_lattice(sl2_generator("zero", spin), step)
            jm = realize_lattice(sl2_generator("minus", spin), step)
            ident = ShiftOperator.identity(step)
            inv = F(1) / step
            lattice_route = (
                a_plus * (jp + step * (jz * jz))
                + params.a1 * (jz * jz * (jm + inv * ident))
                + params.a2 * (jz * jm)
                + params.a3 * jz
                + params.a4 * jm
                + params.a5 * ident
            )
            assert qes_three_point_operator(a_plus, params, spin) == lattice_route

    def test_raising_combination_stays_narrow(self):
        # the step-back legs of the raising and squared-grading terms cancel
        params = ThreePointParams(0, 0, 0, 0, 0, step=1)
        op = qes_three_point_operator(1, params, 1)
        # support is measured, not assumed
        assert op.shifts == (-1, 0)
        assert op.coefficient(0) == Polynomial((F(1, 4), -1, 1))
        assert op.coefficient(-1) == Polynomial((0, 0, -1))
