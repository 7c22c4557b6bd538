"""Reference families: self-consistency and frozen values.

The continuum families are generated by recurrence, so they are checked here
against their second-order differential equations; the lattice families are
generated by terminating hypergeometric sums, so they are checked against
their three-term recurrences.  Each route is independent of the generation
route.  The continuum members are also compared with the recurrences run in
Polynomial algebra, a route that shares no code with the coefficient lists.
"""

import math
from fractions import Fraction as F

import pytest
from hypothesis import given
from hypothesis import strategies as st

from isospec.errors import BasisMismatchError, ParameterError
from isospec.oracles import (
    FamilySpec,
    _members,
    family,
    projective_equal,
    reference_in_operator_variable,
    reference_polynomial,
)
from isospec.polynomials import Polynomial, quasi_basis

X = Polynomial.identity()


def derivative(p):
    """d/dx of a monomial-basis polynomial, coefficient by coefficient."""
    assert p.basis.is_monomial
    return Polynomial([i * c for i, c in enumerate(p.coeffs)][1:])


def second_derivative(p):
    return derivative(derivative(p))


class TestDifferentialEquations:
    def test_hermite(self):
        spec = family("hermite")
        for k in range(13):
            h = reference_polynomial(spec, k)
            residual = second_derivative(h) - 2 * (X * derivative(h)) + 2 * k * h
            assert residual.is_zero

    def test_laguerre(self):
        alpha = F(1, 2)
        spec = family("laguerre", alpha=alpha)
        for k in range(13):
            p = reference_polynomial(spec, k)
            residual = (
                X * second_derivative(p)
                + (Polynomial.constant(alpha + 1) - X) * derivative(p)
                + k * p
            )
            assert residual.is_zero

    def test_legendre(self):
        spec = family("legendre")
        one_minus_x2 = Polynomial((1, 0, -1))
        for k in range(13):
            p = reference_polynomial(spec, k)
            residual = (
                one_minus_x2 * second_derivative(p)
                - 2 * (X * derivative(p))
                + k * (k + 1) * p
            )
            assert residual.is_zero

    def test_jacobi(self):
        alpha, beta = F(1, 3), F(3, 4)
        spec = family("jacobi", alpha=alpha, beta=beta)
        one_minus_x2 = Polynomial((1, 0, -1))
        for k in range(13):
            p = reference_polynomial(spec, k)
            residual = (
                one_minus_x2 * second_derivative(p)
                + (Polynomial.constant(beta - alpha) - (alpha + beta + 2) * X) * derivative(p)
                + k * (k + alpha + beta + 1) * p
            )
            assert residual.is_zero


class TestThreeTermRecurrences:
    def test_hahn(self):
        alpha, beta, size = F(1), F(2), 16
        spec = family("hahn", alpha=alpha, beta=beta, size=size)
        # recurrence coefficients in the sum's own parameterization
        a, b, m = beta, alpha, size - 1
        for k in range(1, 13):
            fwd = (k + a + b + 1) * (k + a + 1) * (m - k) / (
                (2 * k + a + b + 1) * (2 * k + a + b + 2))
            back = k * (k + a + b + m + 1) * (k + b) / (
                (2 * k + a + b) * (2 * k + a + b + 1))
            q_prev = reference_polynomial(spec, k - 1)
            q_cur = reference_polynomial(spec, k)
            q_next = reference_polynomial(spec, k + 1)
            lhs = -1 * (X * q_cur)
            rhs = fwd * q_next - (fwd + back) * q_cur + back * q_prev
            assert lhs == rhs

    def test_meixner(self):
        gamma, mu = F(3, 2), F(2, 5)
        spec = family("meixner", gamma=gamma, mu=mu)
        for k in range(1, 13):
            m_prev = reference_polynomial(spec, k - 1)
            m_cur = reference_polynomial(spec, k)
            m_next = reference_polynomial(spec, k + 1)
            lhs = (mu - 1) * (X * m_cur)
            rhs = mu * (k + gamma) * m_next - (k + (k + gamma) * mu) * m_cur + k * m_prev
            assert lhs == rhs

    def test_charlier(self):
        mu = F(3)
        spec = family("charlier", mu=mu)
        for k in range(1, 13):
            c_prev = reference_polynomial(spec, k - 1)
            c_cur = reference_polynomial(spec, k)
            c_next = reference_polynomial(spec, k + 1)
            lhs = -1 * (X * c_cur)
            rhs = mu * c_next - (k + mu) * c_cur + k * c_prev
            assert lhs == rhs


class TestDegreesAndValues:
    @pytest.mark.parametrize("name,kwargs", [
        ("hermite", {}),
        ("laguerre", {"alpha": 0}),
        ("legendre", {}),
        ("jacobi", {"alpha": 1, "beta": 2}),
        ("hahn", {"alpha": 0, "beta": 0, "size": 14}),
        ("meixner", {"gamma": 1, "mu": 2}),
        ("charlier", {"mu": 1}),
    ])
    def test_degree_is_exactly_k(self, name, kwargs):
        spec = family(name, **kwargs)
        for k in range(13):
            assert reference_polynomial(spec, k).degree == k

    def test_hermite_degree_two(self):
        assert reference_polynomial(family("hermite"), 2) == Polynomial((-2, 0, 4))

    def test_charlier_degree_one(self):
        # frozen from the evaluated sum: 1 - x, proportional to (x - 1)
        got = reference_polynomial(family("charlier", mu=1), 1)
        assert got == Polynomial((1, -1))
        assert projective_equal(got, Polynomial((-1, 1)))

    def test_degree_zero_is_constant(self):
        for name, kwargs in (
            ("hermite", {}),
            ("hahn", {"alpha": 1, "beta": 1, "size": 4}),
            ("meixner", {"gamma": 2, "mu": F(1, 3)}),
        ):
            assert reference_polynomial(family(name, **kwargs), 0).degree == 0


SEVEN_FAMILIES = [
    ("hermite", {}),
    ("laguerre", {"alpha": F(1, 2)}),
    ("legendre", {}),
    ("jacobi", {"alpha": 1, "beta": F(1, 3)}),
    ("hahn", {"alpha": 1, "beta": 2, "size": 12}),
    ("meixner", {"gamma": F(3, 2), "mu": F(2, 5)}),
    ("charlier", {"mu": 3}),
]


def rising(a, j):
    out = F(1)
    for i in range(j):
        out *= a + i
    return out


class TestMembers:
    @pytest.mark.parametrize("name,kwargs", SEVEN_FAMILIES, ids=[n for n, _ in SEVEN_FAMILIES])
    def test_one_run_gives_every_lower_degree(self, name, kwargs):
        spec = family(name, **kwargs)
        members = _members(spec, 10)
        assert len(members) == 11
        for j in range(11):
            assert _members(spec, j) == members[:j + 1]
            assert reference_polynomial(spec, j) == members[j]

    @pytest.mark.parametrize("name,kwargs,term", [
        ("hahn", {"alpha": 1, "beta": 2, "size": 12},
         lambda n, j: rising(-n, j) * rising(n + 4, j) / (rising(3, j) * rising(-11, j))),
        ("meixner", {"gamma": F(3, 2), "mu": F(2, 5)},
         lambda n, j: rising(-n, j) / rising(F(3, 2), j) * (1 - 1 / F(2, 5)) ** j),
        ("charlier", {"mu": 3}, lambda n, j: rising(-n, j) * (-1 / F(3)) ** j),
    ], ids=["hahn", "meixner", "charlier"])
    def test_sums_match_their_terms_evaluated_at_points(self, name, kwargs, term):
        # the hypergeometric sum summed as numbers at each point, with no polynomials
        members = _members(family(name, **kwargs), 10)
        for n, member in enumerate(members):
            for x in (F(-2), F(0), F(3), F(7, 2)):
                value = sum(term(n, j) * rising(-x, j) / math.factorial(j)
                            for j in range(n + 1))
                assert member(x) == value

    def test_hahn_beyond_max_degree_names_the_range(self):
        spec = family("hahn", alpha=0, beta=0, size=4)
        assert len(_members(spec, 3)) == 4
        with pytest.raises(ParameterError, match=r"hahn has only degrees 0\.\.3, got 4"):
            _members(spec, 4)

    def test_degenerate_meixner_gamma_raises_at_the_same_term(self):
        # family() refuses gamma = -1; a hand-built spec reaches the sum, whose
        # bottom parameter gamma + (j - 1) vanishes at term 2
        spec = FamilySpec("meixner", (("gamma", F(-1)), ("mu", F(2))))
        assert reference_polynomial(spec, 1).degree == 1
        for k in (2, 5):
            with pytest.raises(ParameterError, match="-1 degenerates at term 2"):
                reference_polynomial(spec, k)
            with pytest.raises(ParameterError, match="-1 degenerates at term 2"):
                _members(spec, k)


def polynomial_recurrence(name, alpha, beta, k):
    """p_0..p_k of a continuum family from its recurrence written in
    Polynomial algebra, one family at a time."""
    one = Polynomial.constant(1)
    if name == "hermite":
        p1 = 2 * X

        def step(n, cur, prev):
            return 2 * (X * cur) - (2 * n) * prev
    elif name == "laguerre":
        p1 = Polynomial.constant(1 + alpha) - X

        def step(n, cur, prev):
            return F(1, n + 1) * ((Polynomial.constant(2 * n + 1 + alpha) - X) * cur
                                  - (n + alpha) * prev)
    elif name == "legendre":
        p1 = X

        def step(n, cur, prev):
            return F(1, n + 1) * ((2 * n + 1) * (X * cur) - n * prev)
    else:
        p1 = F(1, 2) * ((alpha + beta + 2) * X + Polynomial.constant(alpha - beta))

        def step(n, cur, prev):
            s = 2 * n + alpha + beta
            lead = (s + 1) * (s * (s + 2) * X + Polynomial.constant(alpha**2 - beta**2))
            back = 2 * (n + alpha) * (n + beta) * (s + 2)
            denom = 2 * (n + 1) * (n + alpha + beta + 1) * s
            return (lead * cur - back * prev) * (F(1) / denom)
    members = [one, p1]
    for n in range(1, k):
        members.append(step(n, members[-1], members[-2]))
    return members[:k + 1]


exponents = st.fractions(min_value=-1, max_value=4, max_denominator=9).filter(lambda a: a > -1)


class TestContinuumRecurrence:
    @pytest.mark.parametrize("name", ["hermite", "laguerre", "legendre", "jacobi"])
    @given(alpha=exponents, beta=exponents, k=st.integers(0, 40))
    def test_members_match_the_polynomial_algebra_recurrence(self, name, alpha, beta, k):
        kwargs = {"laguerre": {"alpha": alpha},
                  "jacobi": {"alpha": alpha, "beta": beta}}.get(name, {})
        assert _members(family(name, **kwargs), k) == polynomial_recurrence(name, alpha, beta, k)


class TestProjectiveEqual:
    def test_scaled_pair(self):
        assert projective_equal(Polynomial((-2, 0, 4)), Polynomial((-1, 0, 2)))

    def test_different_shape(self):
        assert not projective_equal(Polynomial((0, 0, 1)), Polynomial((1, 0, 1)))

    def test_zero_conventions(self):
        assert projective_equal(Polynomial.zero(), Polynomial.zero())
        assert not projective_equal(Polynomial.zero(), Polynomial((1,)))

    def test_different_degrees(self):
        assert not projective_equal(Polynomial((0, 1)), Polynomial((0, 0, 1)))

    def test_basis_mismatch_refused(self):
        with pytest.raises(BasisMismatchError):
            projective_equal(Polynomial((1,)), Polynomial((1,), quasi_basis(1)))


class TestValidation:
    def test_hahn_range(self):
        spec = family("hahn", alpha=0, beta=0, size=4)
        assert spec.max_degree == 3
        reference_polynomial(spec, 3)
        with pytest.raises(ParameterError):
            reference_polynomial(spec, 4)

    def test_hahn_needs_integer_size(self):
        with pytest.raises(ParameterError):
            family("hahn", alpha=0, beta=0, size=F(7, 2))

    def test_meixner_rejects_degenerate_mu(self):
        with pytest.raises(ParameterError):
            family("meixner", gamma=1, mu=1)

    def test_meixner_rejects_non_positive_integer_gamma(self):
        with pytest.raises(ParameterError):
            family("meixner", gamma=-2, mu=2)

    def test_unknown_family(self):
        with pytest.raises(ParameterError):
            family("krawtchouk", mu=1)

    def test_recorded_variable_map(self):
        spec = family("hahn", alpha=0, beta=0, size=4)
        assert spec.variable_scale == -1
        direct = reference_polynomial(spec, 2)
        mapped = reference_in_operator_variable(spec, 2)
        assert mapped.degree == direct.degree
        for x in (F(2 * i - 5, 3) for i in range(direct.degree + 1)):
            assert mapped(x) == direct(-x)
        # identity map families pass straight through
        spec2 = family("charlier", mu=2)
        assert reference_in_operator_variable(spec2, 2) == reference_polynomial(spec2, 2)
