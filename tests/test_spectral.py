"""Matrices, characteristic polynomials, certificates, families."""

import math
import random
from fractions import Fraction as F
from math import perm

import pytest
from hypothesis import given
from hypothesis import strategies as st

from isospec.algebra import AlgebraElement, gen_a, gen_b, sl2_generator, unit
from isospec import oracles, spectral
from isospec.errors import (
    DegenerateSpectrumError,
    IsospecError,
    SubspaceOverflowError,
)
from isospec.operators import (
    QesQuadraticForm,
    SecondOrderParams,
    ThreePointParams,
    classical_preset,
    discrete_preset,
    qes_quadratic_element,
    qes_three_point_element,
    second_order_element,
    three_point_operator,
)
from isospec.polynomials import (MONOMIAL, Polynomial, _fraction_vector, _integer_vector,
                                 convert_basis, quasi_basis)
from isospec.representations import ShiftOperator, apply_continuum, realize_lattice
from isospec.spectral import (
    OperatorMatrix,
    char_poly,
    continuum_matrix,
    discrete_family,
    eigenpairs_triangular,
    invariant_subspace_check,
    isospectral_check,
    lattice_matrix,
    matrix_on_basis,
    spectral_report,
    stencil_extract,
    substitute_quasi,
    verify_pointwise,
)

STEPS = (F(1), F(-1), F(1, 2), F(3, 7))

A = gen_a()
B = gen_b()
HERMITE = second_order_element(classical_preset("hermite"))


def rand_fraction(rng, nonzero=False):
    while True:
        value = F(rng.randint(-9, 9), rng.randint(1, 5))
        if value or not nonzero:
            return value


def poly_matrix_determinant(rows):
    """Cofactor-expansion determinant of a matrix of polynomials: the brute
    force oracle for characteristic polynomials."""
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total = Polynomial.zero()
    for j in range(n):
        entry = rows[0][j]
        if entry.is_zero:
            continue
        minor = [[row[c] for c in range(n) if c != j] for row in rows[1:]]
        cofactor = entry * poly_matrix_determinant(minor)
        total = total + (cofactor if j % 2 == 0 else -1 * cofactor)
    return total


def brute_force_char_poly(matrix):
    lam = Polynomial.identity()
    rows = [
        [
            (lam if i == j else Polynomial.zero()) - Polynomial.constant(matrix.entry(i, j))
            for j in range(matrix.size)
        ]
        for i in range(matrix.size)
    ]
    return poly_matrix_determinant(rows)


def _determinant(rows):
    """Exact determinant by Gaussian elimination with row swaps."""
    a = [list(row) for row in rows]
    n = len(a)
    out = F(1)
    for c in range(n):
        pivot = next((r for r in range(c, n) if a[r][c]), None)
        if pivot is None:
            return F(0)
        if pivot != c:
            a[c], a[pivot] = a[pivot], a[c]
            out = -out
        out *= a[c][c]
        for r in range(c + 1, n):
            f = a[r][c] / a[c][c]
            if f:
                for j in range(c, n):
                    a[r][j] -= f * a[c][j]
    return out


def reference_char_poly(rows):
    """Low-to-high coefficients of det(lambda*I - M): Gaussian elimination at
    lambda = 0..n, then Newton interpolation through those n+1 values.  It
    shares no code with isospec.spectral."""
    n = len(rows)
    diffs = [
        _determinant([[(lam if i == j else 0) - rows[i][j] for j in range(n)]
                      for i in range(n)])
        for lam in range(n + 1)
    ]
    for k in range(1, n + 1):  # divided differences at the nodes 0..n
        for i in range(n, k - 1, -1):
            diffs[i] = (diffs[i] - diffs[i - 1]) / k
    coeffs = [diffs[n]]
    for k in range(n - 1, -1, -1):  # coeffs <- coeffs * (x - k) + diffs[k]
        coeffs = [F(0)] + coeffs
        for i in range(len(coeffs) - 1):
            coeffs[i] -= k * coeffs[i + 1]
        coeffs[0] += diffs[k]
    return coeffs


def fraction_hessenberg_char_poly(rows):
    """Low-to-high coefficients of det(lambda*I - M) by Hessenberg reduction
    over the rationals (Gaussian similarity transforms, pivoting on row m and
    swapping a nonzero pivot in from below) and the Hessenberg recurrence
    (Cohen, Alg. 2.2.9): every operation on Fractions.  It is the library's
    former kernel, kept as the reference for the QES blocks."""
    n = len(rows)
    h = [list(row) for row in rows]
    for m in range(1, n - 1):
        pivot = next((i for i in range(m, n) if h[i][m - 1]), None)
        if pivot is None:
            continue
        if pivot != m:
            h[pivot], h[m] = h[m], h[pivot]
            for row in h:
                row[pivot], row[m] = row[m], row[pivot]
        for i in range(m + 1, n):
            if not h[i][m - 1]:
                continue
            u = h[i][m - 1] / h[m][m - 1]
            for j in range(m - 1, n):
                h[i][j] -= u * h[m][j]
            for row in h:
                row[m] += u * row[i]
    polys = [[F(1)]]
    for k in range(1, n + 1):
        p = [F(0)] + polys[k - 1]
        for idx, c in enumerate(polys[k - 1]):
            p[idx] -= h[k - 1][k - 1] * c
        t = F(1)
        for i in range(k - 1, 0, -1):
            t *= h[i][i - 1]
            for idx, q in enumerate(polys[i - 1]):
                p[idx] -= h[i - 1][k - 1] * t * q
        polys.append(p)
    return polys[n]


def sylvester_hadamard(n):
    """The n x n Sylvester Hadamard matrix (n a power of 2), as integers."""
    h = [[1]]
    while len(h) < n:
        h = [row + row for row in h] + [row + [-c for c in row] for row in h]
    return h


CHAR_POLY_SHAPES = ("dense", "sparse", "banded", "upper", "lower", "hessenberg", "swap",
                    "no-pivot")
_entries = st.sampled_from(sorted({F(p, q) for p in range(-9, 10) for q in range(1, 7)}))
_sparse_entries = st.one_of(st.just(F(0)), _entries)


@st.composite
def shaped_matrices(draw, shape):
    """Square matrices of size 0..10 of one shape.  "hessenberg" is upper
    Hessenberg with a nonzero subdiagonal entry (so not upper triangular), or
    its transpose; "swap" zeroes entry (1, 0) under a nonzero (2, 0), so the
    first Hessenberg pivot needs a row and column swap; "no-pivot" is block
    upper triangular (reducible), so the reduction meets a column with
    nothing to pivot on at the cut."""
    n = draw(st.integers(0, 10))
    entry = _sparse_entries if shape == "sparse" else _entries
    rows = [draw(st.lists(entry, min_size=n, max_size=n)) for _ in range(n)]
    lower = upper = n  # nonzero band: -lower <= j - i <= upper
    if shape == "banded":
        lower, upper = draw(st.integers(0, 2)), draw(st.integers(0, 2))
    elif shape == "upper":
        lower = 0
    elif shape == "lower":
        upper = 0
    elif shape == "hessenberg":
        lower = 1
    for i in range(n):
        for j in range(n):
            if not -lower <= j - i <= upper:
                rows[i][j] = F(0)
    if shape == "swap" and n >= 3:
        rows[1][0] = F(0)
        rows[2][0] = draw(_entries.filter(bool))
    if shape == "hessenberg" and n >= 2:
        i = draw(st.integers(1, n - 1))
        rows[i][i - 1] = draw(_entries.filter(bool))
        if draw(st.booleans()):
            rows = [list(column) for column in zip(*rows)]
    if shape == "no-pivot" and n:
        cut = draw(st.integers(0, n - 1))
        for i in range(cut + 1, n):
            rows[i][:cut + 1] = [F(0)] * (cut + 1)
    return rows


_big_entries = st.builds(lambda sign, size, q: F(sign * size, q), st.sampled_from((1, -1)),
                         st.integers(10**34, 10**40), st.integers(1, 9))


@st.composite
def band_matrices(draw):
    """(lower, upper, rows): a square matrix of size 0..12 that is zero unless
    -lower <= j - i <= upper, lower 2..4 and upper 0..4.  Entries are zero,
    small, or of 35 to 40 digits; some diagonal entries are zeroed, and at
    each cut every entry coupling the rows and columns before it to those
    after it is zeroed, so the matrix splits into diagonal blocks."""
    n = draw(st.integers(0, 12))
    lower, upper = draw(st.integers(2, 4)), draw(st.integers(0, 4))
    entry = st.one_of(_sparse_entries, _big_entries)
    rows = [[draw(entry) if -lower <= j - i <= upper else F(0) for j in range(n)]
            for i in range(n)]
    for i in draw(st.sets(st.integers(0, n - 1), max_size=3)) if n else ():
        rows[i][i] = F(0)
    for cut in draw(st.sets(st.integers(1, n - 1), max_size=2)) if n >= 2 else ():
        for i in range(cut):
            for j in range(cut, n):
                rows[i][j] = rows[j][i] = F(0)
    return lower, upper, rows


@st.composite
def triangular_matrices(draw):
    """An upper or lower triangular matrix of size 0..12.  Its diagonal is
    drawn from a pool of at most four values (so entries repeat), each zero,
    small or of 35 to 40 digits; the cells on the other side of it are zero,
    small or big, and every zero cell is a fresh ``Fraction(0)`` or the
    builders' shared ``_ZERO``."""
    n = draw(st.integers(0, 12))
    noise = st.one_of(_sparse_entries, _big_entries)
    pool = draw(st.lists(st.one_of(st.just(F(0)), _entries, _big_entries),
                         min_size=1, max_size=4))
    diagonal = [draw(st.sampled_from(pool)) for _ in range(n)]
    rows = [[diagonal[i] if i == j else draw(noise) if j > i else F(0) for j in range(n)]
            for i in range(n)]
    if draw(st.booleans()):
        rows = [list(column) for column in zip(*rows)]
    zero = st.one_of(st.builds(F), st.just(spectral._ZERO))
    return [[x if x else draw(zero) for x in row] for row in rows]


class TestMatrix:
    def test_hermite_matrix_degree_three(self):
        matrix = continuum_matrix(HERMITE, 3)
        assert matrix.diagonal == (0, -2, -4, -6)
        assert matrix.entry(0, 2) == 2  # second derivative of x^2
        assert matrix.entry(1, 3) == 6
        assert matrix.is_upper_triangular

    def test_zero_operator(self):
        matrix = continuum_matrix(unit(0), 2)
        assert all(c == 0 for row in matrix.entries for c in row)

    def test_grading_operator_is_diagonal(self):
        matrix = continuum_matrix(B * A, 4)
        assert matrix.diagonal == (0, 1, 2, 3, 4)
        assert matrix.entries == tuple(
            tuple(F(i) if i == j else F(0) for j in range(5)) for i in range(5)
        )

    def test_overflow_raises_when_closure_demanded(self):
        with pytest.raises(SubspaceOverflowError) as err:
            continuum_matrix(B, 3)  # multiplication by x raises degree
        assert err.value.degree == 3

    def test_overflow_raises_in_the_reference_builder(self):
        with pytest.raises(SubspaceOverflowError) as err:
            matrix_on_basis(lambda p: apply_continuum(B, p), MONOMIAL, 3)
        assert err.value.degree == 3


small = st.fractions(min_value=-9, max_value=9, max_denominator=6)
steps = st.sampled_from([F(1), F(-1), F(1, 2), F(3, 7), F(-2, 5)])
shift_operators = st.builds(
    ShiftOperator,
    steps,
    st.dictionaries(st.integers(-3, 3), st.lists(small, max_size=4), max_size=4),
)
exponents = st.integers(0, 4)
elements = st.dictionaries(st.tuples(exponents, exponents), small, max_size=5).map(AlgebraElement)
# the operator's own ladder, the monomial basis, or a ladder at another step
basis_kinds = st.sampled_from(["own", "monomial", "other"])


def _basis(kind, op):
    if kind == "own":
        return quasi_basis(op.step)
    return MONOMIAL if kind == "monomial" else quasi_basis(3 * op.step)


def matrix_or_overflow(build, *args, **kwargs):
    """The matrix ``build`` returns, or the degree of the SubspaceOverflowError
    it raises: one value to compare a builder with its reference."""
    try:
        return build(*args, **kwargs)
    except SubspaceOverflowError as exc:
        assert isinstance(exc.degree, int)
        return exc.degree


def assert_subspace_report_matches(report, reference):
    """``reference`` is a matrix, or the degree at which it overflowed."""
    if isinstance(reference, OperatorMatrix):
        assert report.closed and report.offending_degree is None
        assert report.block == reference
        assert report.block_char_poly == char_poly(reference)
    else:
        assert not report.closed and report.block is None
        assert report.offending_degree == reference


def fraction_taylor_shift(coeffs, amount):
    """p(x + amount) by repeated synthetic division by x - amount."""
    out = list(coeffs)
    for i in range(len(out) - 1):
        for j in range(len(out) - 2, i - 1, -1):
            out[j] += amount * out[j + 1]
    return Polynomial(out)


def fraction_action(op):
    """The monomial action ``p -> sum_k p_k(x) * p(x + k*step)`` by Fraction
    Taylor shifts, sharing no code with the ladder kernel."""
    def act(p):
        out = Polynomial.zero()
        for k, pk in op.terms.items():
            out = out + pk * fraction_taylor_shift(p.coeffs, k * op.step)
        return out
    return act


class TestLadderMatrixAgainstMonomialDetour:
    """Lattice matrices are built on the ladder itself; the detour through
    monomials (``matrix_on_basis`` over :func:`fraction_action`) is the
    reference they must reproduce entry for entry, or overflow at the same
    degree."""

    @given(shift_operators, basis_kinds, st.integers(0, 7))
    def test_same_matrix_and_overflow_as_the_reference(self, op, kind, degree):
        basis = _basis(kind, op)
        reference = matrix_or_overflow(matrix_on_basis, fraction_action(op), basis, degree)
        assert matrix_or_overflow(lattice_matrix, op, degree, basis=basis) == reference

    @given(elements, steps, st.integers(0, 24))
    def test_realized_element_has_the_continuum_matrix(self, element, step, degree):
        # the paper's transport coefficient for coefficient: on its own
        # ladder the realization has the continuum matrix, or overflows at
        # the same degree; its rungs are bands, here far above degree 7
        lattice = matrix_or_overflow(lattice_matrix, realize_lattice(element, step), degree)
        continuum = matrix_or_overflow(continuum_matrix, element, degree)
        if isinstance(continuum, OperatorMatrix):
            assert isinstance(lattice, OperatorMatrix)
            assert lattice.entries == continuum.entries
        else:
            assert lattice == continuum

    @given(shift_operators, st.integers(0, 7))
    def test_subspace_check_reports_the_reference_overflow(self, op, spin):
        basis = quasi_basis(op.step)
        reference = matrix_or_overflow(matrix_on_basis, fraction_action(op), basis, spin)
        assert_subspace_report_matches(invariant_subspace_check(op, spin), reference)

    @given(elements, steps, st.integers(0, 6))
    def test_subspace_check_of_an_element_reports_the_reference_overflow(self, element, step, spin):
        # both realizations of one element: the continuum side against the
        # detour over repeated differentiation, the lattice side over the
        # realized operator's apply
        continuum = matrix_or_overflow(
            matrix_on_basis,
            lambda p: Polynomial(repeated_differentiation(element.terms, p.coeffs)),
            MONOMIAL, spin)
        assert_subspace_report_matches(invariant_subspace_check(element, spin), continuum)
        op = realize_lattice(element, step)
        lattice = matrix_or_overflow(matrix_on_basis, fraction_action(op), quasi_basis(step), spin)
        assert_subspace_report_matches(invariant_subspace_check(element, spin, step), lattice)

    @given(shift_operators, basis_kinds, st.lists(small, max_size=8), small)
    def test_verify_pointwise_agrees_with_the_monomial_path(self, op, kind, coeffs, lam):
        phi = Polynomial(coeffs, _basis(kind, op))
        phi_m = convert_basis(phi, MONOMIAL)
        assert verify_pointwise(op, phi, lam) == (fraction_action(op)(phi_m) - lam * phi_m).is_zero

    def test_verify_pointwise_accepts_true_eigenfunctions_on_any_ladder(self):
        # the property above mostly sees "false"; true eigenpairs (eigenvalue
        # k^2 at degree k, a simple spectrum) must pass on three ladders
        element = second_order_element(SecondOrderParams(-1, F(2, 3), F(5, 7), 1, F(-3, 2), F(1, 4)))
        step = F(2, 5)
        op = realize_lattice(element, step)
        matrix = lattice_matrix(op, 6)
        for lam, phi in eigenpairs_triangular(matrix):
            for basis in (MONOMIAL, quasi_basis(3 * step)):
                assert verify_pointwise(op, convert_basis(convert_basis(phi, MONOMIAL), basis), lam)
            assert verify_pointwise(op, phi, lam)


# negative steps and denominators up to 9, dense coefficients whose
# denominators differ; empty maps and all-zero lists give the zero operator
wide_steps = st.builds(F, st.integers(-9, 9).filter(bool), st.integers(1, 9))
dense = st.builds(F, st.integers(-40, 40), st.integers(1, 9))
wide_shift_operators = st.builds(
    ShiftOperator,
    wide_steps,
    st.dictionaries(st.integers(-3, 3), st.lists(dense, max_size=4), max_size=4),
)
dense_vectors = st.lists(dense, max_size=12)


def fraction_ladder_images(op, vectors, basis):
    """The ladder identity ``x^(r) * T^k x^(j) = sum_i C(j, i) h^(j-i) x^(r+i)``,
    ``h = k*step + r*s``, one Fraction operation at a time."""
    s = F(0) if basis.is_monomial else basis.step
    reach = max((p.degree for p in op.terms.values()), default=0)
    images = [[F(0)] * (len(v) + reach) for v in vectors]
    for k, pk in op.terms.items():
        for r, c in enumerate(convert_basis(pk, basis).coeffs):
            h = k * op.step + r * s
            for v, image in zip(vectors, images):
                for j, vj in enumerate(v):
                    falling = F(1)  # h^(m)
                    for m in range(j + 1):
                        image[r + j - m] += c * vj * math.comb(j, m) * falling
                        falling *= h - m * s
    return images


def ladder_images(op, vectors, basis):
    """``op._ladder_images`` on Fraction vectors: each goes in through its
    integer form and comes out as a Fraction list without trailing zeros."""
    images = op._ladder_images([_integer_vector(v) for v in vectors], basis)
    for den, nonzero, length in images:
        assert den > 0 and all(n for _, n in nonzero)
        assert [i for i, _ in nonzero] == sorted({i for i, _ in nonzero})
        assert all(0 <= i < length for i, _ in nonzero)
    return [list(Polynomial(_fraction_vector(image)).coeffs) for image in images]


def trimmed(vector):
    return list(Polynomial(vector).coeffs)


class TestLadderKernelAgainstFractionReference:
    """The integer ladder kernel behind lattice matrices, verify_pointwise,
    ShiftOperator.apply and Polynomial.shifted must reproduce the Fraction
    ladder identity and the Fraction Taylor shift exactly."""

    @given(wide_shift_operators, basis_kinds, st.lists(dense_vectors, max_size=3))
    def test_images_match_the_fraction_ladder_identity(self, op, kind, vectors):
        basis = _basis(kind, op)
        assert ladder_images(op, vectors, basis) == [
            trimmed(image) for image in fraction_ladder_images(op, vectors, basis)]

    @given(wide_shift_operators, basis_kinds, st.integers(0, 12))
    def test_unit_vectors_in_integer_form_match_the_fraction_ladder_identity(self, op, kind, j):
        # the form lattice_matrix passes: only the degrees the rungs reach
        basis = _basis(kind, op)
        unit = [F(0)] * j + [F(1)]
        (image,) = op._ladder_images([(1, [(j, 1)], j + 1)], basis)
        (expected,) = fraction_ladder_images(op, [unit], basis)
        assert trimmed(_fraction_vector(image)) == trimmed(expected)

    @given(wide_shift_operators, dense_vectors)
    def test_apply_matches_the_fraction_taylor_shift_sum(self, op, coeffs):
        assert op.apply(Polynomial(coeffs)) == fraction_action(op)(Polynomial(coeffs))

    @pytest.mark.parametrize("kind", ["own", "monomial", "other"])
    def test_zero_operator_and_zero_vectors(self, kind):
        vectors = [[], [F(0)] * 3, [F(0), F(5, 9)]]
        for op in (ShiftOperator.zero(F(-4, 9)), ShiftOperator(F(-4, 9), {2: [F(1, 3), F(-7, 8)]})):
            basis = _basis(kind, op)
            images = ladder_images(op, vectors, basis)
            assert images == [trimmed(image)
                              for image in fraction_ladder_images(op, vectors, basis)]
            assert not any(images[0] + images[1])
        assert ShiftOperator.zero(F(-4, 9)).apply(Polynomial((1, 2))) == Polynomial.zero()


def repeated_differentiation(terms, coeffs):
    """The differential realization the slow way, on plain coefficient
    lists: differentiate n times, then multiply by x^m, term by term."""
    out = []
    for (m, n), c in terms.items():
        q = list(coeffs)
        for _ in range(n):
            q = [k * q[k] for k in range(1, len(q))]
        q = [F(0)] * m + q
        out += [F(0)] * (len(q) - len(out))
        for k, qk in enumerate(q):
            out[k] += c * qk
    while out and not out[-1]:
        out.pop()
    return out


def reference_continuum_columns(element, degree):
    """Images of 1, x, ..., x^degree, trimmed, by repeated differentiation."""
    terms = element.terms
    return [repeated_differentiation(terms, [F(0)] * j + [F(1)]) for j in range(degree + 1)]


# terms b^m a^n with m <= n: they never raise degree
non_raising = st.dictionaries(
    st.tuples(exponents, exponents).filter(lambda mn: mn[0] <= mn[1]), small, max_size=3)


@st.composite
def top_cancelling_elements(draw):
    """An element and a spin at which two terms of one lift r >= 1 cancel in
    the top coefficient of the image of x^spin, plus non-raising terms.
    With r = 1 the element therefore closes on degree <= spin."""
    spin = draw(st.integers(1, 6))
    lift = draw(st.integers(1, 2))
    n1, n2 = draw(st.lists(st.integers(0, min(spin, 4)), min_size=2, max_size=2, unique=True))
    c1 = draw(small.filter(bool))
    c2 = -c1 * perm(spin, n1) / perm(spin, n2)
    terms = draw(non_raising)
    for key, c in (((n1 + lift, n1), c1), ((n2 + lift, n2), c2)):
        terms[key] = terms.get(key, F(0)) + c
    return AlgebraElement(terms), spin, lift


class TestContinuumAgainstRepeatedDifferentiation:
    """The continuum side is built from the closed form of each term; the old
    algorithm, repeated differentiation then multiplication by x^m, is the
    reference it must reproduce."""

    @given(elements, st.lists(small, max_size=9))
    def test_apply_continuum_matches(self, element, coeffs):
        image = apply_continuum(element, Polynomial(coeffs))
        assert list(image.coeffs) == repeated_differentiation(element.terms, coeffs)
        assert image.basis == MONOMIAL

    @given(elements, st.integers(0, 8))
    def test_continuum_matrix_matches_or_overflows_at_the_same_degree(self, element, degree):
        columns = reference_continuum_columns(element, degree)
        overflow = [j for j, col in enumerate(columns) if len(col) > degree + 1]
        if overflow:
            with pytest.raises(SubspaceOverflowError) as err:
                continuum_matrix(element, degree)
            assert err.value.degree == overflow[0]
        else:
            padded = [col + [F(0)] * (degree + 1 - len(col)) for col in columns]
            assert continuum_matrix(element, degree).entries == tuple(zip(*padded))

    @staticmethod
    def assert_subspace_check_matches(element, spin):
        columns = reference_continuum_columns(element, spin)
        overflow = [j for j, col in enumerate(columns) if len(col) > spin + 1]
        report = invariant_subspace_check(element, spin)
        assert report.closed == (not overflow)
        assert report.offending_degree == (overflow[0] if overflow else None)
        if report.closed:
            padded = [col + [F(0)] * (spin + 1 - len(col)) for col in columns]
            assert report.block.entries == tuple(zip(*padded))
        else:
            assert report.block is None
        return report

    @given(elements, st.integers(0, 8))
    def test_subspace_check_matches(self, element, spin):
        self.assert_subspace_check_matches(element, spin)

    @given(top_cancelling_elements())
    def test_cancelled_top_coefficients_do_not_overflow(self, drawn):
        element, spin, lift = drawn
        # the top coefficient of the image of x^spin cancelled
        assert len(reference_continuum_columns(element, spin)[spin]) <= spin + lift
        report = self.assert_subspace_check_matches(element, spin)
        if lift == 1:
            assert report.closed


def assert_shared_zeros(matrix):
    """Every zero cell of a builder's matrix is the one object ``_ZERO``,
    which char_poly skips by identity."""
    assert all(x is spectral._ZERO for row in matrix.entries for x in row if not x)


def apply_continuum_columns(element, degree):
    """Images of 1, x, ..., x^degree by apply_continuum, trimmed."""
    return [list(apply_continuum(element, Polynomial.unit_vector(j)).coeffs)
            for j in range(degree + 1)]


def assert_continuum_matrix_matches_apply_continuum(element, degree):
    """continuum_matrix against the columns of apply_continuum: the same
    entries, or the same overflow degree and message; returns the matrix or
    None."""
    columns = apply_continuum_columns(element, degree)
    overflow = [(j, len(col) - 1) for j, col in enumerate(columns) if len(col) > degree + 1]
    if overflow:
        with pytest.raises(SubspaceOverflowError) as err:
            continuum_matrix(element, degree)
        j, top = overflow[0]
        assert err.value.degree == j
        assert str(err.value) == (f"image of the degree-{j} basis element has degree "
                                  f"{top} > bound {degree}")
        return None
    matrix = continuum_matrix(element, degree)
    padded = [col + [F(0)] * (degree + 1 - len(col)) for col in columns]
    assert matrix.entries == tuple(zip(*padded))
    assert_shared_zeros(matrix)
    return matrix


E2_RATIONAL = second_order_element(SecondOrderParams(1, -2, F(3, 2), F(1, 3), -1, 2))
QES2_PARAMS = (1, -2, F(3, 2), F(1, 3), -1, 2, F(5, 4), -3, F(1, 2), 2)


class TestContinuumMatrixOnDiagonals:
    """continuum_matrix sums each diagonal over Z; apply_continuum, the
    term-by-term closed form on Fractions, is its reference far above the
    degrees the properties reach."""

    @pytest.mark.parametrize("degree", [60, 200])
    def test_generic_rational_element_at_high_degree(self, degree):
        matrix = assert_continuum_matrix_matches_apply_continuum(E2_RATIONAL, degree)
        assert matrix is not None and matrix.is_upper_triangular

    @pytest.mark.parametrize("degree", [60, 200])
    def test_qes2_form_at_high_degree(self, degree):
        # it closes at spin = degree, and at spin degree/2 it overflows
        element = qes_quadratic_element(QesQuadraticForm(degree, *QES2_PARAMS))
        assert assert_continuum_matrix_matches_apply_continuum(element, degree) is not None
        element = qes_quadratic_element(QesQuadraticForm(degree // 2, *QES2_PARAMS))
        assert assert_continuum_matrix_matches_apply_continuum(element, degree) is None

    @pytest.mark.parametrize("spin", [2, 6, 30])
    def test_a_diagonal_that_cancels_at_column_spin_leaves_the_shared_zero(self, spin):
        form = QesQuadraticForm(spin, plus_plus=2, plus_zero=-3, zero_zero=1, minus_minus=5,
                                plus=F(7, 2), const=-F(spin, 2) ** 2)
        element = qes_quadratic_element(form)
        # the main diagonal is b^2 a^2 + (1 - spin) b a: j(j-1) + (1-spin) j,
        # two nonzero terms that cancel at j = spin (and at j = 0)
        assert {k: c for k, c in element.terms.items() if k[0] == k[1]} == {
            (2, 2): 1, (1, 1): 1 - spin}
        matrix = assert_continuum_matrix_matches_apply_continuum(element, spin)
        assert matrix.entries[spin][spin] is spectral._ZERO
        assert matrix.entries[0][0] is spectral._ZERO
        # the raising diagonals cancel at column spin too, so the first
        # overflow is at spin + 1, as apply_continuum has it
        assert assert_continuum_matrix_matches_apply_continuum(element, spin + 1) is None
        with pytest.raises(SubspaceOverflowError) as err:
            continuum_matrix(element, spin + 1)
        assert err.value.degree == spin + 1

    @given(elements, shift_operators, basis_kinds, st.integers(0, 12))
    def test_builders_put_the_shared_zero_in_every_zero_cell(self, element, op, kind, degree):
        for matrix in (matrix_or_overflow(continuum_matrix, element, degree),
                       matrix_or_overflow(lattice_matrix, op, degree, basis=_basis(kind, op)),
                       matrix_or_overflow(lattice_matrix, realize_lattice(element, op.step),
                                          degree)):
            if isinstance(matrix, OperatorMatrix):
                assert_shared_zeros(matrix)


KERNELS = ("_triangular_char_poly", "_hessenberg_char_poly", "_band_char_poly",
           "_berkowitz_char_poly")


def with_zeros(rows, zero):
    """The matrix of ``rows`` with ``zero()`` in every zero cell."""
    return OperatorMatrix(MONOMIAL, tuple(tuple(x if x else zero() for x in row)
                                          for row in rows))


def kernels_and_char_poly(matrix):
    """The names of the kernels char_poly ran on ``matrix``, and its result."""
    ran = []
    with pytest.MonkeyPatch.context() as patch:
        for name in KERNELS:
            def spy(*args, name=name, kernel=getattr(spectral, name)):
                ran.append(name)
                return kernel(*args)
            patch.setattr(spectral, name, spy)
        cp = char_poly(matrix)
    return ran, cp


class TestCharPoly:
    def test_triangular_product(self):
        matrix = continuum_matrix(HERMITE, 2)
        # lambda(lambda+2)(lambda+4) = 8l + 6l^2 + l^3
        assert char_poly(matrix) == Polynomial((0, 8, 6, 1))

    def test_zero_matrix(self):
        matrix = OperatorMatrix(MONOMIAL, ((F(0), F(0)), (F(0), F(0))))
        assert char_poly(matrix) == Polynomial((0, 0, 1))

    def test_monic_of_full_degree(self):
        matrix = continuum_matrix(HERMITE, 5)
        cp = char_poly(matrix)
        assert cp.degree == 6 and cp.leading == 1

    def test_hahn_matrix_against_brute_force(self):
        params = discrete_preset("hahn", alpha=0, beta=0, size=3)
        matrix = lattice_matrix(three_point_operator(params), 2, basis=MONOMIAL)
        assert char_poly(matrix) == brute_force_char_poly(matrix)

    def test_dense_matrices_against_brute_force(self):
        rng = random.Random(8)
        for size in (3, 4, 5):
            entries = tuple(
                tuple(rand_fraction(rng) for _ in range(size)) for _ in range(size)
            )
            matrix = OperatorMatrix(MONOMIAL, entries)
            assert not matrix.is_upper_triangular  # exercise the general path
            assert char_poly(matrix) == brute_force_char_poly(matrix)

    def test_triangular_fast_path_agrees_with_brute_force(self):
        rng = random.Random(9)
        size = 5
        entries = tuple(
            tuple(rand_fraction(rng) if i <= j else F(0) for j in range(size))
            for i in range(size)
        )
        matrix = OperatorMatrix(MONOMIAL, entries)
        assert matrix.is_upper_triangular
        assert char_poly(matrix) == brute_force_char_poly(matrix)

    @given(st.sampled_from(["upper", "lower"]), st.data())
    def test_triangular_fast_path_is_the_product_over_the_diagonal(self, shape, data):
        rows = data.draw(shaped_matrices(shape))
        expected = [F(1)]
        for i, row in enumerate(rows):  # expected <- expected * (lambda - d_i)
            expected = ([-row[i] * expected[0]]
                        + [expected[k - 1] - row[i] * expected[k] for k in range(1, len(expected))]
                        + [expected[-1]])
        matrix = OperatorMatrix(MONOMIAL, tuple(tuple(row) for row in rows))
        assert list(char_poly(matrix).coeffs) == expected

    @pytest.mark.parametrize("shape", CHAR_POLY_SHAPES)
    @given(st.data())
    def test_agrees_with_gaussian_elimination(self, shape, data):
        rows = data.draw(shaped_matrices(shape))
        matrix = OperatorMatrix(MONOMIAL, tuple(tuple(row) for row in rows))
        assert list(char_poly(matrix).coeffs) == reference_char_poly(rows)

    @pytest.mark.parametrize("shape", CHAR_POLY_SHAPES)
    @given(st.data())
    def test_fresh_zeros_give_the_char_poly_of_shared_ones(self, shape, data):
        # char_poly skips the builders' _ZERO by identity; a zero Fraction of
        # its own must take the general path to the same kernel and result
        rows = data.draw(shaped_matrices(shape))
        shared = with_zeros(rows, lambda: spectral._ZERO)
        fresh = with_zeros(rows, lambda: F(0))
        assert not any(x is spectral._ZERO for row in fresh.entries for x in row)
        assert kernels_and_char_poly(fresh) == kernels_and_char_poly(shared)
        assert list(char_poly(fresh).coeffs) == reference_char_poly(rows)

    def test_fresh_zeros_give_the_char_poly_of_shared_ones_on_every_kernel(self):
        rng = random.Random(17)
        n = 9

        def banded(lower, upper):
            return [[rand_fraction(rng, nonzero=True) if -lower <= j - i <= upper else F(0)
                     for j in range(n)] for i in range(n)]

        dense = banded(n, n)
        dense[3][5] = dense[7][1] = F(0)
        for rows, kernel in ((banded(0, 2), "_triangular_char_poly"),
                             (banded(3, 0), "_triangular_char_poly"),
                             (banded(1, 3), "_hessenberg_char_poly"),
                             (banded(2, 2), "_band_char_poly"),
                             (dense, "_berkowitz_char_poly")):
            ran, cp = kernels_and_char_poly(with_zeros(rows, lambda: spectral._ZERO))
            assert ran == [kernel]
            assert kernels_and_char_poly(with_zeros(rows, lambda: F(0))) == (ran, cp)
            assert list(cp.coeffs) == reference_char_poly(rows)

    @given(triangular_matrices())
    def test_triangular_kernel_agrees_with_gaussian_elimination(self, rows):
        def unreachable(*args):
            raise AssertionError("a triangular matrix left the triangular kernel")

        n = len(rows)
        expected = reference_char_poly(rows)
        matrix = OperatorMatrix(MONOMIAL, tuple(map(tuple, rows)))
        with pytest.MonkeyPatch.context() as patch:
            for name in KERNELS[1:]:
                patch.setattr(spectral, name, unreachable)
            assert list(char_poly(matrix).coeffs) == expected
        # the kernel itself, on the diagonal scaled by the LCM of its own
        # denominators: the other cells play no part
        lcm = math.lcm(1, *(row[i].denominator for i, row in enumerate(rows)))
        diagonal = [int(row[i] * lcm) for i, row in enumerate(rows)]
        scaled = [c * lcm ** (n - i) for i, c in enumerate(expected)]
        assert spectral._triangular_char_poly(diagonal) == scaled

    def test_qes_blocks_at_spin_18_agree_with_gaussian_elimination(self):
        rng = random.Random(18)
        step = F(3, 7)
        form = QesQuadraticForm(18, *(rand_fraction(rng, nonzero=True) for _ in range(10)))
        params = ThreePointParams(*(rand_fraction(rng) for _ in range(5)), step=step)
        for element in (qes_quadratic_element(form),
                        qes_three_point_element(rand_fraction(rng, nonzero=True), params, 18)):
            for report in (invariant_subspace_check(element, 18),
                           invariant_subspace_check(element, 18, step)):
                block = report.block
                size = block.size
                assert any(block.entries[i][j] for i in range(size) for j in range(i))
                assert any(block.entries[i][j] for i in range(size) for j in range(i + 1, size))
                expected = reference_char_poly([list(row) for row in block.entries])
                assert list(report.block_char_poly.coeffs) == expected


    def test_qes_blocks_at_spin_30_agree_with_fraction_hessenberg(self):
        rng = random.Random(30)
        step = F(-5, 3)
        form = QesQuadraticForm(30, *(rand_fraction(rng, nonzero=True) for _ in range(10)))
        params = ThreePointParams(*(rand_fraction(rng) for _ in range(5)), step=step)
        # lower bandwidth 2 (the band recurrence) and 1 (the Hessenberg recurrence)
        for element in (qes_quadratic_element(form),
                        qes_three_point_element(rand_fraction(rng, nonzero=True), params, 30)):
            for report in (invariant_subspace_check(element, 30),
                           invariant_subspace_check(element, 30, step)):
                block = [list(row) for row in report.block.entries]
                assert list(report.block_char_poly.coeffs) == fraction_hessenberg_char_poly(block)

    @given(band_matrices())
    def test_band_matrices_agree_with_gaussian_elimination(self, drawn):
        lower, upper, rows = drawn
        n = len(rows)
        expected = reference_char_poly(rows)
        matrix = OperatorMatrix(MONOMIAL, tuple(tuple(row) for row in rows))
        assert list(char_poly(matrix).coeffs) == expected
        # the kernel itself, on the integer matrix L*M and the drawn band,
        # which may be wider than the matrix's own
        lcm = math.lcm(1, *(c.denominator for row in rows for c in row))
        ints = [[int(c * lcm) for c in row] for row in rows]
        scaled = [c * lcm ** (n - i) for i, c in enumerate(expected)]
        assert spectral._band_char_poly(ints, lower, upper) == scaled

    @given(st.integers(0, 10).flatmap(lambda n: st.lists(
        st.lists(st.one_of(_sparse_entries, _big_entries), min_size=n, max_size=n),
        min_size=n, max_size=n)))
    def test_berkowitz_agrees_with_gaussian_elimination(self, rows):
        n = len(rows)
        lcm = math.lcm(1, *(c.denominator for row in rows for c in row))
        ints = [[int(c * lcm) for c in row] for row in rows]
        scaled = [c * lcm ** (n - i) for i, c in enumerate(reference_char_poly(rows))]
        assert spectral._berkowitz_char_poly(ints) == scaled

    @pytest.mark.parametrize("shape", CHAR_POLY_SHAPES)
    @given(st.data())
    def test_berkowitz_agrees_on_every_shape(self, shape, data):
        # char_poly sends most of these shapes to the Hessenberg or band
        # kernel; the Berkowitz kernel must still be right on their zeros
        rows = data.draw(shaped_matrices(shape))
        n = len(rows)
        lcm = math.lcm(1, *(c.denominator for row in rows for c in row))
        ints = [[int(c * lcm) for c in row] for row in rows]
        scaled = [c * lcm ** (n - i) for i, c in enumerate(reference_char_poly(rows))]
        assert spectral._berkowitz_char_poly(ints) == scaled

    def test_band_matrices_skip_berkowitz(self, monkeypatch):
        class Reached(Exception):
            pass

        def reached(a):
            raise Reached

        monkeypatch.setattr(spectral, "_berkowitz_char_poly", reached)
        rng = random.Random(18)
        form = QesQuadraticForm(18, *(rand_fraction(rng, nonzero=True) for _ in range(10)))
        report = invariant_subspace_check(qes_quadratic_element(form), 18)
        block = [list(row) for row in report.block.entries]
        assert any(block[i][i - 2] for i in range(2, len(block)))  # not Hessenberg
        assert list(report.block_char_poly.coeffs) == fraction_hessenberg_char_poly(block)
        dense = tuple(tuple(rand_fraction(rng, nonzero=True) for _ in range(10))
                      for _ in range(10))
        with pytest.raises(Reached):
            char_poly(OperatorMatrix(MONOMIAL, dense))

    @pytest.mark.parametrize("size", [5, 6, 7, 8])
    def test_large_entries_agree_with_gaussian_elimination(self, size):
        # numerators of 35 to 40 digits
        rng = random.Random(size)
        rows = [[F(rng.randint(-10**40, 10**40) // 10**rng.randint(0, 5), rng.randint(1, 9))
                 for _ in range(size)] for _ in range(size)]
        matrix = OperatorMatrix(MONOMIAL, tuple(tuple(row) for row in rows))
        assert list(char_poly(matrix).coeffs) == reference_char_poly(rows)

    @pytest.mark.parametrize("size", [2, 4, 8])
    def test_hadamard_matrices_meet_the_bound(self, size):
        # (s/q)*H has eigenvalues +-sqrt(size)*s/q, each size/2 times, and
        # |det| as large as Hadamard's inequality allows; with 45-digit
        # entries, size 4 takes the band kernel and size 8 Berkowitz's
        s, q = 10**45 + 7, 7
        hadamard = sylvester_hadamard(size)
        scaled = [[s * c for c in row] for row in hadamard]
        matrix = OperatorMatrix(MONOMIAL, tuple(tuple(F(c, q) for c in row) for row in scaled))
        expected = Polynomial.constant(1)
        for _ in range(size // 2):
            expected = expected * Polynomial((-size * F(s, q) ** 2, 0, 1))
        assert char_poly(matrix) == expected


class TestEigenpairs:
    def test_hermite_degree_two(self):
        matrix = continuum_matrix(HERMITE, 2)
        pairs = eigenpairs_triangular(matrix)
        assert pairs[0] == (F(0), Polynomial.constant(1))
        assert pairs[1] == (F(-2), Polynomial.identity())
        assert pairs[2] == (F(-4), Polynomial((F(-1, 2), 0, 1)))
        # the degree-2 eigenvector is proportional to 4x^2 - 2
        from isospec.oracles import projective_equal

        assert projective_equal(pairs[2][1], Polynomial((-2, 0, 4)))

    def test_diagonal_matrix_gives_unit_vectors(self):
        matrix = continuum_matrix(B * A, 3)
        for k, (lam, vec) in enumerate(eigenpairs_triangular(matrix)):
            assert lam == k
            assert vec == Polynomial.unit_vector(k)

    def test_degenerate_diagonal_refused(self):
        matrix = OperatorMatrix(MONOMIAL, ((F(1), F(2)), (F(0), F(1))))
        with pytest.raises(DegenerateSpectrumError):
            eigenpairs_triangular(matrix)

    def test_each_pair_satisfies_the_matrix_equation(self):
        params = SecondOrderParams(1, 0, -1, -2, 0, 0)
        matrix = continuum_matrix(second_order_element(params), 6)
        for lam, vec in eigenpairs_triangular(matrix):
            image = [
                sum(matrix.entry(i, j) * vec.coefficient(j) for j in range(matrix.size))
                for i in range(matrix.size)
            ]
            assert image == [lam * vec.coefficient(i) for i in range(matrix.size)]


@st.composite
def upper_triangular_simple_spectrum(draw):
    """Upper-triangular matrices of size 0..10 with distinct diagonal entries
    and zeros scattered above the diagonal."""
    n = draw(st.integers(0, 10))
    diag = draw(st.lists(_entries, min_size=n, max_size=n, unique=True))
    return [[diag[i] if i == j else draw(_sparse_entries) if j > i else F(0)
             for j in range(n)] for i in range(n)]


def dense_back_substitution(rows):
    """Eigenpairs of an upper-triangular matrix with distinct diagonal: the
    degree-k eigenvector has leading coefficient 1 and is solved over every
    entry right of the diagonal, zeros included."""
    out = []
    for k in range(len(rows)):
        lam = rows[k][k]
        vec = [F(0)] * k + [F(1)]
        for i in range(k - 1, -1, -1):
            s = sum((rows[i][j] * vec[j] for j in range(i + 1, k + 1)), F(0))
            vec[i] = -s / (rows[i][i] - lam)
        out.append((lam, vec))
    return out


class TestEigenpairsAgainstDenseBackSubstitution:
    @given(upper_triangular_simple_spectrum())
    def test_same_eigenpairs(self, rows):
        matrix = OperatorMatrix(MONOMIAL, tuple(tuple(row) for row in rows))
        got = [(lam, list(vec.coeffs)) for lam, vec in eigenpairs_triangular(matrix)]
        assert got == dense_back_substitution(rows)


class TestSpectralReport:
    def test_clean_report(self):
        report = spectral_report(continuum_matrix(HERMITE, 4))
        assert report.triangular
        assert report.warning is None
        assert len(report.eigenpairs) == 5

    def test_degenerate_spectrum_becomes_warning(self):
        params = ThreePointParams(0, 0, 0, 1, 0, step=1)  # pure lowering
        matrix = lattice_matrix(three_point_operator(params), 3, basis=MONOMIAL)
        report = spectral_report(matrix)
        assert report.eigenpairs is None
        assert "degenerate" in report.warning


class TestIsospectral:
    def test_hermite_all_steps(self):
        for step in STEPS:
            cert = isospectral_check(HERMITE, step, 10)
            assert cert.verdict

    def test_pure_lowering_is_nilpotent_in_both_realizations(self):
        cert = isospectral_check(A, 1, 5)
        assert cert.verdict
        assert cert.continuum_char_poly == Polynomial((0,) * 6 + (1,))

    def test_random_second_order(self):
        rng = random.Random(10)
        params = SecondOrderParams(*(rand_fraction(rng) for _ in range(6)))
        cert = isospectral_check(second_order_element(params), F(3, 7), 12)
        assert cert.verdict
        assert cert.continuum_char_poly == cert.lattice_char_poly

    def test_degree_96_certificate(self):
        a0, a1, a2, b0, b1, c0 = F(1, 2), F(-3, 4), F(5, 3), F(7, 2), F(-1, 5), F(2, 3)
        element = second_order_element(SecondOrderParams(a0, a1, a2, b0, b1, c0))
        cert = isospectral_check(element, F(-3, 7), 96)
        assert cert.verdict
        expected = Polynomial.constant(1)
        for k in range(97):
            expected = expected * Polynomial((-(-a0 * k * (k - 1) + b0 * k + c0), 1))
        assert cert.lattice_char_poly == cert.continuum_char_poly == expected

    def test_certificate_serializes(self):
        cert = isospectral_check(HERMITE, F(1, 2), 3)
        blob = cert.to_json_obj()
        assert blob["verdict"] is True
        assert blob["delta"] == "1/2"


def certificate_with_lattice(monkeypatch, edit, degree=8, step=F(3, 7)):
    """The certificate of E2_RATIONAL when ``lattice_matrix`` returns its real
    matrix with the rows passed through ``edit`` (None: unpatched); with
    the matrices char_poly ran on and the lattice matrix used."""
    latt = []
    if edit is not None:
        def edited(op, degree, basis=None, build=spectral.lattice_matrix):
            real = build(op, degree, basis)
            rows = edit([list(row) for row in real.entries])
            latt.append(OperatorMatrix(real.basis, tuple(map(tuple, rows))))
            return latt[0]
        monkeypatch.setattr(spectral, "lattice_matrix", edited)
    ran = []

    def spy(matrix, kernel=spectral.char_poly):
        ran.append(matrix)
        return kernel(matrix)

    monkeypatch.setattr(spectral, "char_poly", spy)
    return isospectral_check(E2_RATIONAL, step, degree), ran, latt


class TestIsospectralReuse:
    """Both matrices triangular with one diagonal: one char poly, the
    continuum's; any other lattice matrix gets its own."""

    def test_triangular_matrices_with_one_diagonal_take_one_char_poly(self, monkeypatch):
        cert, ran, _ = certificate_with_lattice(monkeypatch, None)
        cont = continuum_matrix(E2_RATIONAL, 8)
        assert ran == [cont]
        assert cert.verdict and cert.lattice_char_poly is cert.continuum_char_poly
        latt = lattice_matrix(realize_lattice(E2_RATIONAL, F(3, 7)), 8)
        assert latt.is_upper_triangular and latt.diagonal == cont.diagonal
        assert cert.lattice_char_poly == char_poly(latt)

    def test_a_permuted_diagonal_goes_through_char_poly(self, monkeypatch):
        def transposed_with_reversed_diagonal(rows):
            n = len(rows)
            out = [list(column) for column in zip(*rows)]
            for i in range(n):
                out[i][i] = rows[n - 1 - i][n - 1 - i]
            return out

        cert, ran, (latt,) = certificate_with_lattice(monkeypatch,
                                                      transposed_with_reversed_diagonal)
        cont = continuum_matrix(E2_RATIONAL, 8)
        assert latt.diagonal == cont.diagonal[::-1] != cont.diagonal
        assert ran == [cont, latt]
        assert list(cert.lattice_char_poly.coeffs) == reference_char_poly(latt.entries)
        assert cert.verdict and cert.lattice_char_poly == cert.continuum_char_poly

    def test_one_changed_diagonal_entry_fails_the_verdict(self, monkeypatch):
        def bumped(rows):
            rows[3][3] += 1
            return rows

        cert, ran, (latt,) = certificate_with_lattice(monkeypatch, bumped)
        assert ran[1:] == [latt]
        assert list(cert.lattice_char_poly.coeffs) == reference_char_poly(latt.entries)
        assert not cert.verdict

    def test_a_non_triangular_lattice_matrix_reaches_char_poly(self, monkeypatch):
        def with_a_subdiagonal_entry(rows):
            rows[4][3] = F(5, 2)
            return rows

        cert, ran, (latt,) = certificate_with_lattice(monkeypatch, with_a_subdiagonal_entry)
        cont = continuum_matrix(E2_RATIONAL, 8)
        assert latt.diagonal == cont.diagonal and not latt.is_upper_triangular
        assert ran == [cont, latt]
        expected = reference_char_poly(latt.entries)
        assert list(cert.lattice_char_poly.coeffs) == expected
        assert cert.verdict == (expected == list(cert.continuum_char_poly.coeffs))


class TestTrustedConstruction:
    """The builders skip the constructor's checks; tests/test_boundaries.py
    holds the public constructor to them."""

    @given(elements, shift_operators, basis_kinds, st.integers(0, 12))
    def test_builders_make_the_matrix_the_constructor_validates(self, element, op, kind,
                                                                degree):
        for matrix in (matrix_or_overflow(continuum_matrix, element, degree),
                       matrix_or_overflow(lattice_matrix, op, degree, basis=_basis(kind, op))):
            if isinstance(matrix, OperatorMatrix):
                checked = OperatorMatrix(matrix.basis, matrix.entries)
                assert matrix == checked and hash(matrix) == hash(checked)
                assert type(matrix) is OperatorMatrix


class TestSubstituteQuasi:
    def test_constant_unchanged(self):
        p = Polynomial.constant(1)
        assert substitute_quasi(p, 1).coeffs == (1,)

    def test_quadratic_expansion(self):
        # 4x^2 - 2 transported to the ladder, expanded: 4x^2 - 4*step*x - 2
        for step in STEPS:
            moved = substitute_quasi(Polynomial((-2, 0, 4)), step)
            assert convert_basis(moved, MONOMIAL) == Polynomial((-2, -4 * step, 4))

    def test_single_coefficient(self):
        moved = substitute_quasi(Polynomial.unit_vector(3), 1)
        assert moved == Polynomial.unit_vector(3, quasi_basis(1))


class TestStencil:
    def test_generic_second_order_reads_five_points(self):
        rng = random.Random(11)
        for _ in range(5):
            params = SecondOrderParams(
                rand_fraction(rng, nonzero=True),
                rand_fraction(rng, nonzero=True),
                rand_fraction(rng, nonzero=True),
                rand_fraction(rng),
                rand_fraction(rng),
                rand_fraction(rng),
            )
            shifts, coeffs = stencil_extract(realize_lattice(second_order_element(params), 1))
            assert shifts == (-2, -1, 0, 1, 2)
            assert all(not c.is_zero for c in coeffs)

    def test_quadratic_form_stays_within_seven_points(self):
        rng = random.Random(12)
        for spin in (1, 2, 4):
            form = QesQuadraticForm(
                spin,
                *(rand_fraction(rng, nonzero=True) for _ in range(10)),
            )
            shifts, _ = stencil_extract(realize_lattice(qes_quadratic_element(form), F(1, 2)))
            assert set(shifts) <= set(range(-4, 3))

    def test_three_point_support(self):
        params = discrete_preset("meixner", gamma=1, mu=2)
        shifts, _ = stencil_extract(three_point_operator(params))
        assert shifts == (-1, 0, 1)


class TestVerifyPointwise:
    def test_hermite_first_excited_state(self):
        step = F(1, 2)
        op = realize_lattice(HERMITE, step)
        matrix = continuum_matrix(HERMITE, 1)
        lam = matrix.diagonal[1]
        phi = substitute_quasi(Polynomial.identity(), step)
        assert verify_pointwise(op, phi, lam)

    def test_perturbed_eigenvalue_fails(self):
        step = F(1, 2)
        op = realize_lattice(HERMITE, step)
        phi = substitute_quasi(Polynomial.identity(), step)
        assert not verify_pointwise(op, phi, -2 + 1)

    def test_zero_polynomial_satisfies_anything(self):
        op = realize_lattice(HERMITE, 1)
        assert verify_pointwise(op, Polynomial.zero(), F(17, 3))


class TestDiscreteFamily:
    def test_hermite_row_two(self):
        table = discrete_family("hermite", 1, 3)
        entry = table.entries[2]
        assert entry.monomial == Polynomial((-2, -4, 4))  # 4x^2 - 4x - 2
        assert entry.quasi.coeffs == (-2, 0, 4)
        assert entry.verified

    def test_degree_zero_row_is_constant(self):
        for name, kwargs in (("hermite", {}), ("laguerre", {"alpha": F(1, 2)}), ("legendre", {}),
                             ("jacobi", {"alpha": F(1, 2), "beta": F(1, 3)})):
            table = discrete_family(name, F(3, 7), 0, **kwargs)
            assert len(table.entries) == 1
            entry = table.entries[0]
            assert (entry.degree, entry.eigenvalue, entry.verified) == (0, 0, True)
            assert entry.monomial == oracles.reference_polynomial(oracles.family(name, **kwargs), 0)

    def test_rows_are_the_reference_members(self):
        spec = oracles.family("jacobi", alpha=F(1, 2), beta=F(1, 3))
        table = discrete_family("jacobi", F(3, 7), 6, alpha=F(1, 2), beta=F(1, 3))
        assert [e.quasi.coeffs for e in table.entries] == [
            ref.coeffs for ref in oracles._members(spec, 6)]

    def test_wrong_reference_member_is_refused(self, monkeypatch):
        members = oracles._members

        def wrong_degree_three(spec, k):
            out = members(spec, k)
            out[3] = out[3] + Polynomial.identity()
            return out

        monkeypatch.setattr(oracles, "_members", wrong_degree_three)
        with pytest.raises(IsospecError, match="degree-3 eigenvector disagrees with the hermite"):
            discrete_family("hermite", 1, 5)
        monkeypatch.undo()
        assert discrete_family("hermite", 1, 5).entries[3].verified

    def test_one_batched_check_flags_exactly_the_wrong_rows(self, monkeypatch):
        # rows of degrees 0..6 go through one ladder pass; a wrong eigenvalue
        # on rows 2 and 5 must show on those rows and on no other
        pairs = spectral.eigenpairs_triangular

        def wrong_eigenvalues(matrix):
            out = pairs(matrix)
            for k in (2, 5):
                out[k] = (out[k][0] + 1, out[k][1])
            return out

        monkeypatch.setattr(spectral, "eigenpairs_triangular", wrong_eigenvalues)
        step = F(3, 7)
        table = discrete_family("jacobi", step, 6, alpha=F(1, 2), beta=F(1, 3))
        assert [e.verified for e in table.entries] == [k not in (2, 5) for k in range(7)]
        element = second_order_element(classical_preset("jacobi", alpha=F(1, 2), beta=F(1, 3)))
        op = realize_lattice(element, step)
        assert [verify_pointwise(op, e.quasi, e.eigenvalue) for e in table.entries] == [
            e.verified for e in table.entries]

    def test_quasi_vectors_are_step_independent(self):
        full = discrete_family("hermite", 1, 3)
        half = discrete_family("hermite", F(1, 2), 3)
        assert full.entries[3].quasi.coeffs == half.entries[3].quasi.coeffs

    def test_laguerre_family_verifies(self):
        table = discrete_family("laguerre", F(1, 3), 5, alpha=F(1, 2))
        assert all(entry.verified for entry in table.entries)

    def test_legendre_family_verifies(self):
        table = discrete_family("discrete-legendre", F(1, 3), 5)
        assert all(entry.verified for entry in table.entries)

    def test_sign_note_only_on_hermite(self):
        assert discrete_family("hermite", 1, 1).notes
        assert not discrete_family("legendre", 1, 1).notes


class TestEigenfunctionTransport:
    def test_every_continuum_eigenpair_solves_the_lattice_problem(self):
        rng = random.Random(14)
        done = 0
        while done < 8:
            params = SecondOrderParams(*(rand_fraction(rng) for _ in range(6)))
            element = second_order_element(params)
            matrix = continuum_matrix(element, 7)
            if len(set(matrix.diagonal)) != matrix.size:
                continue  # transport needs a simple spectrum
            done += 1
            step = STEPS[done % 4]
            op = realize_lattice(element, step)
            for lam, phi in eigenpairs_triangular(matrix):
                moved = substitute_quasi(phi, step)
                assert verify_pointwise(op, moved, lam)

    def test_all_presets_give_triangular_matrices(self):
        for name, kwargs in (
            ("hermite", {}), ("laguerre", {"alpha": 1}),
            ("legendre", {}), ("jacobi", {"alpha": 1, "beta": 2}),
        ):
            element = second_order_element(classical_preset(name, **kwargs))
            assert continuum_matrix(element, 6).is_upper_triangular
            assert lattice_matrix(realize_lattice(element, F(1, 2)), 6).is_upper_triangular
        for name, kwargs in (
            ("hahn", {"alpha": 1, "beta": 0, "size": 8}),
            ("hahn-continued", {"mu": 1, "nu": 2, "size": 8}),
            ("meixner", {"gamma": 2, "mu": 3}),
            ("charlier", {"mu": 2}),
        ):
            op = three_point_operator(discrete_preset(name, **kwargs))
            assert lattice_matrix(op, 6, basis=MONOMIAL).is_upper_triangular
            assert lattice_matrix(op, 6).is_upper_triangular


class TestInvariantSubspace:
    def test_raising_annihilates_the_top_of_its_spin_space(self):
        from isospec.representations import apply_continuum

        jp = sl2_generator("plus", 2)
        assert apply_continuum(jp, Polynomial.unit_vector(2)).is_zero
        report = invariant_subspace_check(jp, 2)
        assert report.closed

    def test_raising_overflows_above_its_spin(self):
        # spin-2 raising sends x^j to (j-2)x^{j+1}: degree 4 leaves the space
        jp = sl2_generator("plus", 2)
        report = invariant_subspace_check(jp, 4)
        assert not report.closed
        assert report.offending_degree == 4

    def test_lowering_always_closes(self):
        for spin in (0, 2, 5):
            assert invariant_subspace_check(gen_a(), spin).closed

    def test_extended_three_point_family_closes_at_its_spin(self):
        rng = random.Random(13)
        for spin in (1, 2, 3):
            step = STEPS[spin]
            params = ThreePointParams(*(rand_fraction(rng) for _ in range(5)), step=step)
            element = qes_three_point_element(rand_fraction(rng, nonzero=True), params, spin)
            cont = invariant_subspace_check(element, spin)
            latt = invariant_subspace_check(realize_lattice(element, step), spin)
            assert cont.closed and latt.closed
            assert cont.block_char_poly == latt.block_char_poly

    def test_element_with_step_checks_the_lattice_side(self):
        report = invariant_subspace_check(HERMITE, 4, step=F(1, 2))
        assert report.closed
        assert report.block.basis == quasi_basis(F(1, 2))
