"""Exact spectral analysis on degree-bounded polynomial spaces.

Operators are restricted to the span of the basis elements of degree <= d;
column j of the matrix holds the expansion of the operator applied to the
degree-j basis element.  Operators that never raise degree therefore give
upper-triangular matrices, eigenvalues sit on the diagonal, and eigenvectors
come out of exact back-substitution.

Each realization has one builder: :func:`continuum_matrix` sums the closed
form ``b^m a^n x^j = j!/(j-n)! * x^(j-n+m)`` of the terms along each
diagonal ``t = m - n`` over Z, and :func:`lattice_matrix` runs the
falling-factorial ladder over Z on integer unit vectors.  Both make one
Fraction per nonzero entry and put the shared ``_ZERO`` in every other cell,
and both raise :class:`SubspaceOverflowError` at the lowest degree whose
image leaves the space; that is the only overflow signal.  The unexported
:func:`matrix_on_basis` (through monomials) is the tests' reference.

Equality of spectra is certified by comparing monic characteristic
polynomials coefficient by coefficient; no roots are ever extracted.
:func:`char_poly` works on the integer matrix ``L*M`` (``L`` an LCM of
denominators) and touches Fractions only to divide the result back, by one
of four division-free kernels over Z.  A triangular matrix, upper or lower,
gets the product of ``lambda - L*M[i][i]`` with ``L`` the LCM of the
diagonal's denominators, and no other cell is scaled; cells that are
``_ZERO`` pass its zero test by identity.  So :func:`isospectral_check`
takes one polynomial when both its matrices are triangular with one
diagonal.  Any other matrix is scaled by the LCM of all its denominators
(skipping ``_ZERO`` cells by identity).  A Hessenberg one (the three-point
QES blocks) gets the Hessenberg recurrence (Cohen, *A Course in
Computational Algebraic Number Theory*, Alg. 2.2.9).  A narrow band (a
quadratic QES block, lower and upper bandwidth 2) gets Laplace expansion
one row at a time, whose states are the columns used inside a sliding
window (for a tridiagonal matrix, the continuant).  Any other (a dense
matrix built by hand) gets Berkowitz's algorithm.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import mul

from .algebra import AlgebraElement
from .errors import (
    BasisMismatchError,
    DegenerateSpectrumError,
    IsospecError,
    SubspaceOverflowError,
    canonical_name,
    require_instance,
    require_int,
)
from .operators import (CLASSICAL_PRESETS, _preset_builder, eigenvalue_convention_note,
                        second_order_element)
from .polynomials import (MONOMIAL, Basis, Polynomial, _integer_vector, convert_basis,
                          quasi_basis)
from .rationals import as_fraction, format_fraction
from .representations import ShiftOperator, realize_lattice
from . import oracles

__all__ = [
    "OperatorMatrix",
    "continuum_matrix",
    "lattice_matrix",
    "char_poly",
    "eigenpairs_triangular",
    "SpectralReport",
    "spectral_report",
    "IsospectralityCertificate",
    "isospectral_check",
    "substitute_quasi",
    "stencil_extract",
    "verify_pointwise",
    "FamilyEntry",
    "FamilyTable",
    "discrete_family",
    "SubspaceReport",
    "invariant_subspace_check",
]

_ZERO = Fraction(0)
_ONE = Fraction(1)


@dataclass(frozen=True)
class OperatorMatrix:
    """Square matrix of an operator on a graded basis.

    ``entries[i][j]`` is the coefficient of the degree-i basis element in the
    image of the degree-j one.  The rows must be as long as there are rows
    (ValueError) and every entry a Fraction (TypeError).
    """

    basis: Basis
    entries: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self):
        size = len(self.entries)
        for row in self.entries:
            if len(row) != size:
                raise ValueError(f"matrix rows must have length {size}, got {len(row)}")
            if {*map(type, row)} - {Fraction}:
                bad = next(c for c in row if type(c) is not Fraction)
                raise TypeError(f"matrix entries must be Fractions, got {bad!r}")

    @property
    def size(self) -> int:
        return len(self.entries)

    @property
    def degree_bound(self) -> int:
        return self.size - 1

    @property
    def diagonal(self) -> tuple[Fraction, ...]:
        return tuple(self.entries[i][i] for i in range(self.size))

    @property
    def is_upper_triangular(self) -> bool:
        return _is_upper(self.entries)

    def entry(self, i: int, j: int) -> Fraction:
        return self.entries[i][j]

    def to_json_obj(self) -> dict:
        return {
            "basis": self.basis.to_json_obj(),
            "degree_bound": self.degree_bound,
            "entries": [[format_fraction(c) for c in row] for row in self.entries],
        }


def _assemble(basis: Basis, degree: int, columns) -> OperatorMatrix:
    """Matrix whose column j is ``columns[j]``, a coefficient vector on
    ``basis`` in the integer form ``(den, [(i, n_i), ...], length)`` of
    :func:`_integer_vector`, nonzero entries lowest degree first; raises
    SubspaceOverflowError at the first column with an entry above the degree
    bound.  Each nonzero entry becomes one Fraction, every other cell the
    shared ``_ZERO``."""
    rows = [[_ZERO] * (degree + 1) for _ in range(degree + 1)]
    for j, (den, nonzero, _) in enumerate(columns):
        if nonzero and nonzero[-1][0] > degree:
            raise SubspaceOverflowError(
                f"image of the degree-{j} basis element has degree "
                f"{nonzero[-1][0]} > bound {degree}",
                degree=j,
            )
        for i, n in nonzero:
            rows[i][j] = Fraction(n, den)
    return _trusted_matrix(basis, tuple(map(tuple, rows)))


def _trusted_matrix(basis: Basis, entries: tuple[tuple[Fraction, ...], ...]) -> OperatorMatrix:
    """An :class:`OperatorMatrix` made without the checks of its constructor,
    as ``AlgebraElement``'s ``_raw`` makes elements: only for ``entries``
    that are already square tuples of Fractions."""
    matrix = object.__new__(OperatorMatrix)
    object.__setattr__(matrix, "basis", basis)
    object.__setattr__(matrix, "entries", entries)
    return matrix


def _zeros(cells) -> bool:
    """True iff every Fraction in ``cells`` is zero.  ``count`` compares by
    identity before equality, so a cell holding the builders' shared
    ``_ZERO`` costs one pointer comparison, and any other zero Fraction
    still counts, by ``==``."""
    return cells.count(_ZERO) == len(cells)


def _is_upper(entries) -> bool:
    return all(_zeros(row[:i]) for i, row in enumerate(entries))


def _is_triangular(entries) -> bool:
    """Upper or lower triangular: either way det(lambda*I - M) is the product
    of ``lambda - M[i][i]``."""
    return _is_upper(entries) or all(_zeros(row[i + 1:]) for i, row in enumerate(entries))


def matrix_on_basis(action, basis: Basis, degree: int) -> OperatorMatrix:
    """Matrix of ``action`` (a map of monomial-basis polynomials) on the
    degree-graded basis elements 0..degree of ``basis``, each converted to
    monomials, mapped and converted back; raises SubspaceOverflowError like
    the builders.  Not exported and used by no library path: it is the
    tests' reference for :func:`lattice_matrix` and :func:`continuum_matrix`.
    """
    require_int(degree, "degree bound")
    images = (
        _integer_vector(convert_basis(
            action(convert_basis(Polynomial.unit_vector(j, basis), MONOMIAL)), basis).coeffs)
        for j in range(degree + 1)
    )
    return _assemble(basis, degree, images)


def continuum_matrix(element: AlgebraElement, degree: int) -> OperatorMatrix:
    """Matrix of the differential realization on monomials of degree <= degree;
    raises SubspaceOverflowError if the element leaves the space.

    Built on the diagonals of the matrix: a term ``c*b^m a^n`` sends ``x^j`` to
    ``c*j!/(j-n)! * x^(j+t)``, ``t = m - n``, so with every ``c`` scaled to
    integers by the lcm ``L`` of the denominators, entry ``(j+t, j)`` is the
    integer sum of ``c*L*perm(j, n)`` over the terms of diagonal ``t``,
    divided once by ``L``.  Only the element's terms are read: no algebra
    product and no lattice, so continuum matrices stay an independent check
    of :func:`realize_lattice`.
    """
    require_int(degree, "degree bound")
    terms = require_instance(element, (AlgebraElement,), "element").terms
    scale = math.lcm(*(c.denominator for c in terms.values()))
    by_diagonal: dict[int, list[tuple[int, int]]] = {}
    for (m, n), c in terms.items():
        by_diagonal.setdefault(m - n, []).append((n, c.numerator * (scale // c.denominator)))
    diagonals = sorted(by_diagonal.items())
    lift = max(max(by_diagonal, default=0), 0)
    columns = (
        (scale, [(j + t, total) for t, row in diagonals
                 if (total := sum(c * math.perm(j, n) for n, c in row))], j + 1 + lift)
        for j in range(degree + 1)
    )
    return _assemble(MONOMIAL, degree, columns)


def lattice_matrix(op: ShiftOperator, degree: int, basis: Basis | None = None) -> OperatorMatrix:
    """Matrix of a shift operator, by default on the quasi-monomial basis at
    the operator's own step; raises SubspaceOverflowError if the operator
    leaves the space.

    Every basis (monomial, the own step, another step) is handled on its own
    ladder by one falling-factorial identity, never through monomials, with
    the entries of :func:`matrix_on_basis`: O(d*w) per coefficient rung that
    is a band ``w`` wide, and O(d^2) per other rung.  The unit columns go in
    as the integer vectors ``(1, [(j, 1)], j + 1)``, so no dense zero list is
    built or scanned.
    """
    require_instance(op, (ShiftOperator,), "op")
    if basis is None:
        basis = quasi_basis(op.step)
    require_int(degree, "degree bound")
    units = [(1, [(j, 1)], j + 1) for j in range(degree + 1)]
    return _assemble(basis, degree, op._ladder_images(units, basis))


def char_poly(matrix: OperatorMatrix) -> Polynomial:
    """Monic characteristic polynomial det(lambda*I - M), exact.

    No Fraction arithmetic until the last step: with ``L`` an LCM of
    denominators, the coefficient of ``lambda^i`` is that of the integer
    matrix ``A = L*M`` divided by ``L^(n-i)``.  Four kernels, all
    division-free over Z, in this order:

    * a triangular ``M``, upper or lower, gets the product of
      ``lambda - A[i][i]``, with ``L`` the LCM of the diagonal's
      denominators only: no other cell is scaled or read past the zero test.
      The cells that hold the builders' shared ``_ZERO`` pass that test by
      identity; any other zero Fraction passes it by ``==``;
    * otherwise ``L`` is the LCM of all the denominators (the shared
      ``_ZERO`` cells become 0 without reading the Fraction, any other zero
      is read like every other entry), and a Hessenberg ``A`` (a lower one
      is transposed) goes through the Hessenberg recurrence (Cohen, *A
      Course in Computational Algebraic Number Theory*, Alg. 2.2.9);
    * any other ``A`` that is zero outside the band ``-p <= j - i <= q``
      with ``C(p+q, p) <= 126`` (a quadratic QES block has p = q = 2) goes
      through Laplace expansion along the rows, one row at a time (Muir,
      *A Treatise on the Theory of Determinants*; for p = q = 1 it is the
      continuant recurrence).  After row k every column left of ``k+1-p``
      is used and exactly p of the window ``k+1-p .. k+q`` are, so the
      states are the C(p+q, p) such sets, each holding one integer
      polynomial.  Row k takes a free column c with the factor
      ``lambda - A[k][k]`` if c == k and ``-A[k][c]`` otherwise, signed by
      ``(-1)^(used columns right of c)``, and column ``k-p`` must be used by
      the time the window passes it.  Cost: ``O(n^2 C(p+q, p) (p+q+1))``
      operations on coefficients.  The cutoff 126, (p, q) = (4, 5), is
      measured: beyond it the next kernel wins;
    * any other ``A`` (a dense matrix) goes through Berkowitz's algorithm
      (Berkowitz, *Inf. Process. Lett.* 18, 1984): the polynomial of each
      leading principal block is that of the one before it times a Toeplitz
      matrix of the products ``R A_r^k S`` of the new row, the block and the
      new column.  Cost: ``O(n^4)`` operations on integers.
    """
    n = matrix.size
    if _is_triangular(matrix.entries):
        diagonal = matrix.diagonal
        lcm = math.lcm(*(x.denominator for x in diagonal))
        coeffs = _triangular_char_poly(
            [x.numerator * (lcm // x.denominator) for x in diagonal])
    else:
        # the builders put the one object _ZERO in every zero cell, and skipping
        # it by identity saves the two property reads of each; this is exact,
        # since any other zero Fraction takes the general path and still gives 0
        denominators = {x.denominator for row in matrix.entries for x in row
                        if x is not _ZERO}
        lcm = math.lcm(*denominators)
        factor = {d: lcm // d for d in denominators}
        a = [[0 if x is _ZERO else x.numerator * factor[x.denominator] for x in row]
             for row in matrix.entries]
        if not any(any(a[i][i + 2:]) for i in range(n)):  # lower Hessenberg
            coeffs = _hessenberg_char_poly([list(column) for column in zip(*a)])
        elif not any(any(a[i][:i - 1]) for i in range(2, n)):  # upper Hessenberg
            coeffs = _hessenberg_char_poly(a)
        else:
            offsets = [j - i for i, row in enumerate(a) for j, x in enumerate(row) if x]
            lower, upper = -min(offsets), max(offsets)
            if math.comb(lower + upper, lower) <= _BAND_STATES:
                coeffs = _band_char_poly(a, lower, upper)
            else:
                coeffs = _berkowitz_char_poly(a)
    return Polynomial([Fraction(c, lcm ** (n - i)) for i, c in enumerate(coeffs)])


def _triangular_char_poly(diagonal: list[int]) -> list[int]:
    """Coefficients, lowest degree first, of the product of ``lambda - d``
    over the integers ``d`` of ``diagonal``: det(lambda*I - A) for a
    triangular integer matrix A with that diagonal."""
    poly = [1]
    for d in diagonal:
        poly = [x - d * y for x, y in zip([0] + poly, poly + [0])]
    return poly


def _hessenberg_char_poly(h: list[list[int]]) -> list[int]:
    """Coefficients, lowest degree first, of det(lambda*I - H) for an upper
    Hessenberg integer matrix H, by the division-free Hessenberg recurrence."""
    # p_{k+1} = (lambda - h[k][k]) p_k - sum_{i<k} h[i][k] (prod_{j=i+1..k} h[j][j-1]) p_i
    # (0-based), the sum in Horner form, acc <- (acc + h[i][k] p_i) h[i+1][i], from
    # the first nonzero h[i][k] after the last zero subdiagonal entry: each
    # product is of a matrix entry and a coefficient, never of two long
    # products, and a band above the diagonal costs only its width
    polys = [[1]]
    start = 0
    for k in range(len(h)):
        if k and not h[k][k - 1]:
            start = k
            polys[:k] = [None] * k  # no later step reaches back past it
        first = next((i for i in range(start, k) if h[i][k]), k)
        acc = [0] * first
        for i in range(first, k):
            a, s = h[i][k], h[i + 1][i]
            acc.append(0)
            acc = [(x + a * y) * s for x, y in zip(acc, polys[i])]
        prev, diag = polys[k], h[k][k]
        polys.append([x - diag * y - z for x, y, z in zip([0] + prev, prev + [0], acc + [0, 0])])
    return polys[-1]


# the band kernel's state count C(p+q, p) up to which it runs instead of
# Berkowitz's: measured on random integer band matrices with 1- and 20-digit
# entries, the band kernel wins at n = 60 on every shape up to (4, 5), C = 126
# (1.6-3.5x there, 40-80x at (2, 2)), and Berkowitz's, whose O(n^4) ignores
# the zeros, wins from (5, 5), C = 252, on; at n = 20 the band kernel loses
# from about C = 70 on, by at most 15 ms
_BAND_STATES = 126


def _band_char_poly(a: list[list[int]], lower: int, upper: int) -> list[int]:
    """Coefficients, lowest degree first, of det(lambda*I - A) for an integer
    matrix A with ``A[i][j] == 0`` unless ``-lower <= j - i <= upper``, by
    Laplace expansion along the rows, one row at a time, division-free."""
    # a partial expansion over rows 0..k-1 has used every column left of
    # k-lower and `lower` columns of the window k-lower .. k-1+upper; bit i of
    # `mask` marks window column k-lower+i (columns left of 0 count as used),
    # so the states are the C(lower+upper, lower) masks, each holding the sum
    # of its signed products.  Row k takes a free column c and a factor
    # lambda - a[k][k] (c == k) or -a[k][c], with sign (-1)^(used columns
    # right of c): the inversions it adds.  Column k-lower leaves the window
    # after row k, so a state that has not used it must take it in row k (any
    # other choice leaves lower+1 used columns in the window, a state that
    # never reaches the end).  For a tridiagonal A this is the continuant.
    n = len(a)
    used = (1 << lower) - 1
    states = {used: [1]}
    moves = {}  # mask -> (window position, next mask, sign is odd) per free column
    for k in range(n):
        row, base = a[k], k - lower
        following = {}
        for mask, poly in states.items():
            steps = moves.get(mask)
            if steps is None:
                steps = moves[mask] = [
                    (i, (mask | 1 << i) >> 1, (mask >> i + 1).bit_count() & 1)
                    for i in (range(lower + upper + 1) if mask & 1 else (0,))
                    if not mask >> i & 1]
            for i, target, odd in steps:
                if base + i >= n:
                    break
                x = row[base + i]
                if i == lower:
                    term = [(x * y - z if odd else z - x * y)
                            for z, y in zip([0] + poly, poly + [0])]
                elif x:
                    x = x if odd else -x
                    term = [x * y for y in poly]
                else:
                    continue
                old = following.get(target)
                if old is not None:
                    if len(old) > len(term):
                        old, term = term, old
                    term = [u + v for u, v in zip(term, old)] + term[len(old):]
                following[target] = term
        states = following
    return states[used]


def _berkowitz_char_poly(a: list[list[int]]) -> list[int]:
    """Coefficients, lowest degree first, of det(lambda*I - A) for any square
    integer matrix A, by Berkowitz's division-free algorithm."""
    # with A_r the leading r x r block, R the row a[r][:r] and S the column
    # a[:r][r], the coefficients of det(lambda*I - A_{r+1}), highest degree
    # first, are the first r+2 of those of det(lambda*I - A_r) times the
    # series 1, -a[r][r], -R S, -R A_r S, .., -R A_r^(r-1) S: a Toeplitz
    # matrix times a vector, over Z
    poly = [1]  # highest degree first
    columns = list(zip(*a))
    for r, row in enumerate(a):
        block = [column[:r] for column in columns[:r]]
        above = columns[r][:r]
        w, c = row[:r], [1, -row[r]]
        for _ in range(r):  # w = R A_r^k
            c.append(-sum(map(mul, w, above)))
            w = [sum(map(mul, w, column)) for column in block]
        poly = [sum(map(mul, c[k::-1], poly)) for k in range(r + 2)]
    return poly[::-1]


def eigenpairs_triangular(matrix: OperatorMatrix) -> list[tuple[Fraction, Polynomial]]:
    """Eigenpairs of an upper-triangular matrix with distinct diagonal.

    The degree-k eigenvector is normalized to leading coefficient 1 and found
    by exact back-substitution; repeated diagonal entries are refused (no
    Jordan analysis here).
    """
    if not matrix.is_upper_triangular:
        raise IsospecError("matrix is not upper triangular")
    diag = matrix.diagonal
    if len(set(diag)) != len(diag):
        seen: dict[Fraction, int] = {}
        for k, d in enumerate(diag):
            if d in seen:
                raise DegenerateSpectrumError(
                    f"diagonal entry {format_fraction(d)} repeats at degrees "
                    f"{seen[d]} and {k}"
                )
            seen[d] = k
    # each row's nonzero entries right of the diagonal, by column
    above = [[(j, e) for j, e in enumerate(row[i + 1:], i + 1) if e]
             for i, row in enumerate(matrix.entries)]
    out = []
    for k in range(matrix.size):
        lam = diag[k]
        vec = [_ZERO] * (k + 1)
        vec[k] = _ONE
        for i in range(k - 1, -1, -1):
            s = _ZERO
            for j, e in above[i]:
                if j > k:
                    break
                if vec[j]:
                    s += e * vec[j]
            if s:
                vec[i] = -s / (diag[i] - lam)
        out.append((lam, Polynomial(vec, matrix.basis)))
    return out


@dataclass(frozen=True)
class SpectralReport:
    """Everything the spectrum commands report about one matrix."""

    matrix: OperatorMatrix
    char_poly: Polynomial
    triangular: bool
    eigenpairs: tuple[tuple[Fraction, Polynomial], ...] | None
    notes: tuple[str, ...] = ()
    warning: str | None = None

    def to_json_obj(self) -> dict:
        pairs = None
        if self.eigenpairs is not None:
            pairs = [
                {
                    "eigenvalue": format_fraction(lam),
                    "eigenfunction": vec.to_json_obj(),
                }
                for lam, vec in self.eigenpairs
            ]
        return {
            "matrix": self.matrix.to_json_obj(),
            "char_poly": [format_fraction(c) for c in self.char_poly.coeffs],
            "triangular": self.triangular,
            "eigenpairs": pairs,
            "notes": list(self.notes),
            "warning": self.warning,
        }


def spectral_report(matrix: OperatorMatrix, notes: tuple[str, ...] = ()) -> SpectralReport:
    """Characteristic polynomial plus eigenpairs when the matrix is
    triangular with simple spectrum; degeneracy becomes a warning, not an
    error."""
    return _spectral_report(matrix, char_poly(matrix), notes)


def _spectral_report(matrix: OperatorMatrix, cp: Polynomial,
                     notes: tuple[str, ...]) -> SpectralReport:
    """:func:`spectral_report` with the characteristic polynomial ``cp``
    given, so that it can be taken on any matrix similar to ``matrix``."""
    triangular = matrix.is_upper_triangular
    pairs = None
    warning = None
    if triangular:
        try:
            pairs = tuple(eigenpairs_triangular(matrix))
        except DegenerateSpectrumError as exc:
            warning = f"degenerate spectrum: {exc}"
    else:
        warning = "matrix is not triangular; eigenpairs not computed"
    return SpectralReport(
        matrix=matrix,
        char_poly=cp,
        triangular=triangular,
        eigenpairs=pairs,
        notes=tuple(notes),
        warning=warning,
    )


@dataclass(frozen=True)
class IsospectralityCertificate:
    """Certificate that the differential and lattice restrictions of the same
    element have equal spectra on the degree-bounded space."""

    step: Fraction
    degree_bound: int
    continuum_char_poly: Polynomial
    lattice_char_poly: Polynomial
    verdict: bool
    notes: tuple[str, ...] = ()

    def to_json_obj(self) -> dict:
        return {
            "delta": format_fraction(self.step),
            "degree_bound": self.degree_bound,
            "continuum_char_poly": [format_fraction(c) for c in self.continuum_char_poly.coeffs],
            "lattice_char_poly": [format_fraction(c) for c in self.lattice_char_poly.coeffs],
            "verdict": self.verdict,
            "notes": list(self.notes),
        }


def isospectral_check(element: AlgebraElement, step, degree: int) -> IsospectralityCertificate:
    """Build the continuum matrix on monomials and the lattice matrix on the
    quasi-monomial ladder, and compare their monic characteristic polynomials
    exactly.  When both matrices are triangular with equal diagonals, entry
    for entry, the lattice polynomial is the continuum one, taken once;
    any other pair gets a :func:`char_poly` of its own.

    Raises SubspaceOverflowError if the element does not close on the space
    in either realization.
    """
    step = as_fraction(step)
    cont = continuum_matrix(element, degree)
    latt = lattice_matrix(realize_lattice(element, step), degree)
    cp_cont = char_poly(cont)
    # the char poly of a triangular matrix is the product over its diagonal,
    # so a triangular lattice matrix with the continuum's diagonal has the
    # continuum's polynomial whenever that matrix is triangular too
    if (latt.diagonal == cont.diagonal and _is_triangular(latt.entries)
            and _is_triangular(cont.entries)):
        cp_latt = cp_cont
    else:
        cp_latt = char_poly(latt)
    return IsospectralityCertificate(
        step=step,
        degree_bound=degree,
        continuum_char_poly=cp_cont,
        lattice_char_poly=cp_latt,
        verdict=cp_cont == cp_latt,
    )


def substitute_quasi(p: Polynomial, step) -> Polynomial:
    """Retag a monomial coefficient vector onto the quasi-monomial ladder.

    This is the eigenfunction transport map, not a change of basis: the
    coefficients are kept and each x^k is reread as x^(k).
    """
    if not p.basis.is_monomial:
        raise BasisMismatchError("substitute_quasi expects a monomial-basis polynomial")
    return Polynomial(p.coeffs, quasi_basis(step))


def stencil_extract(op: ShiftOperator) -> tuple[tuple[int, ...], tuple[Polynomial, ...]]:
    """Sorted nonzero shifts and their coefficient polynomials."""
    shifts = op.shifts
    return shifts, tuple(op.coefficient(k) for k in shifts)


def verify_pointwise(op: ShiftOperator, phi: Polynomial, eigenvalue) -> bool:
    """True iff (op phi)(x) = eigenvalue*phi(x) as a polynomial identity, and
    hence at every point x; checked on phi's own basis."""
    (verified,) = _eigen_identities(op, phi.basis, [(phi, as_fraction(eigenvalue))])
    return verified


def _eigen_identities(op: ShiftOperator, basis: Basis, pairs) -> list[bool]:
    """:func:`verify_pointwise` for every ``(phi, eigenvalue)`` pair, all on
    ``basis``, with one :meth:`ShiftOperator._ladder_images` call, so the
    operator's coefficients go onto the ladder once for all of them."""
    vectors = [_integer_vector(phi.coeffs) for phi, _ in pairs]
    images = op._ladder_images(vectors, basis)
    # over Z, before any division: with lam = p/q, phi's numerators over V and
    # the image's over den, the image is lam*phi iff q*V*image == p*den*phi;
    # both sides list only nonzero entries, so for p = 0 the right one is empty
    out = []
    for (_, lam), (v_den, nonzero, _), (den, image, _) in zip(pairs, vectors, images):
        left, right = lam.denominator * v_den, lam.numerator * den
        out.append([(i, left * a) for i, a in image] ==
                   [(j, right * b) for j, b in nonzero if right])
    return out


@dataclass(frozen=True)
class FamilyEntry:
    """One row of a discrete-family table."""

    degree: int
    eigenvalue: Fraction
    quasi: Polynomial
    monomial: Polynomial
    verified: bool

    def to_json_obj(self) -> dict:
        return {
            "k": self.degree,
            "eigenvalue": format_fraction(self.eigenvalue),
            "quasi_coeffs": [format_fraction(c) for c in self.quasi.coeffs],
            "monomial_coeffs": [format_fraction(c) for c in self.monomial.coeffs],
            "verified": self.verified,
        }


@dataclass(frozen=True)
class FamilyTable:
    name: str
    step: Fraction
    entries: tuple[FamilyEntry, ...]
    notes: tuple[str, ...] = ()

    def to_json_obj(self) -> dict:
        return {
            "family": self.name,
            "delta": format_fraction(self.step),
            "entries": [e.to_json_obj() for e in self.entries],
            "notes": list(self.notes),
        }


def discrete_family(name: str, step, k_max: int, **params) -> FamilyTable:
    """Lattice counterparts of a classical family up to degree ``k_max``.

    The continuum eigenpairs are solved exactly and walked beside the
    reference family's members 0..k_max, generated in one run.  Each
    eigenvector must match its member projectively; the row is then the
    reference member itself, transported onto the quasi-monomial ladder and
    verified against the realized lattice operator at its eigenvalue, every
    row in one ladder pass.
    """
    key = canonical_name(name)
    if key.startswith("discrete-"):
        key = key[len("discrete-"):]
    require_int(k_max, "k_max")
    step = as_fraction(step)
    _, builder = _preset_builder("classical", CLASSICAL_PRESETS, key)
    spec = oracles.family(key, **params)
    element = second_order_element(builder(**dict(spec.params)))
    lattice_op = realize_lattice(element, step)
    pairs = eigenpairs_triangular(continuum_matrix(element, k_max))
    rows = []
    for k, ((lam, phi), ref) in enumerate(zip(pairs, oracles._members(spec, k_max), strict=True)):
        if not oracles.projective_equal(phi, ref):
            raise IsospecError(
                f"degree-{k} eigenvector disagrees with the {key} reference family"
            )
        rows.append((substitute_quasi(ref, step), lam))
    verified = _eigen_identities(lattice_op, quasi_basis(step), rows)
    entries = [FamilyEntry(k, lam, quasi, convert_basis(quasi, MONOMIAL), ok)
               for k, ((quasi, lam), ok) in enumerate(zip(rows, verified))]
    note = eigenvalue_convention_note(key)
    return FamilyTable(
        name=key,
        step=step,
        entries=tuple(entries),
        notes=(note,) if note else (),
    )


@dataclass(frozen=True)
class SubspaceReport:
    """Outcome of checking that an operator keeps degree <= spin invariant."""

    spin: int
    closed: bool
    offending_degree: int | None
    block: OperatorMatrix | None
    block_char_poly: Polynomial | None

    def to_json_obj(self) -> dict:
        return {
            "spin": self.spin,
            "closed": self.closed,
            "offending_degree": self.offending_degree,
            "block": self.block.to_json_obj() if self.block else None,
            "block_char_poly": (
                [format_fraction(c) for c in self.block_char_poly.coeffs]
                if self.block_char_poly
                else None
            ),
        }


def invariant_subspace_check(op, spin: int, step=None) -> SubspaceReport:
    """Check that ``op`` preserves the span of polynomials of degree <= spin
    and report the (spin+1)-square block with its characteristic polynomial.

    ``op`` may be an abstract element (checked in the differential
    realization, or on the lattice when ``step`` is given) or a shift
    operator (checked on its own lattice and quasi-monomial ladder).
    """
    require_int(spin, "spin")
    require_instance(op, (AlgebraElement, ShiftOperator), "op")
    if isinstance(op, AlgebraElement):
        if step is not None:
            op = realize_lattice(op, step)
    elif step is not None and as_fraction(step) != op.step:
        raise IsospecError("step argument disagrees with the operator's step")
    try:
        if isinstance(op, AlgebraElement):
            matrix = continuum_matrix(op, spin)
        else:
            matrix = lattice_matrix(op, spin)
    except SubspaceOverflowError as exc:
        return SubspaceReport(spin, False, exc.degree, None, None)
    return SubspaceReport(spin, True, None, matrix, char_poly(matrix))
