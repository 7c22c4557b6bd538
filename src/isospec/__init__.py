"""Exact lattice discretization of solvable differential operators.

The canonical pair (d/dx, x) satisfies the commutation relation
``a*b - b*a = 1``; replacing it by the forward difference and a
shifted-multiplication operator on a uniform lattice satisfies the same
relation, so any solvable operator written in the pair keeps its exact
eigenvalues under the substitution, and polynomial eigenfunctions transport
coefficient-for-coefficient from monomials onto step-delta falling
factorials.  Everything here is computed over exact rationals: structural
claims (stencil widths, spectra, classical-family matches) are certified,
never approximated.
"""

from .algebra import (
    AlgebraElement,
    gen_a,
    gen_b,
    sl2_generator,
    unit,
    zero,
)
from .errors import (
    BasisMismatchError,
    DegenerateSpectrumError,
    IsospecError,
    ParameterError,
    StepMismatchError,
    SubspaceOverflowError,
)
from .operators import (
    QesQuadraticForm,
    SecondOrderParams,
    ThreePointParams,
    classical_preset,
    discrete_preset,
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
from .oracles import (
    FamilySpec,
    family,
    projective_equal,
    reference_in_operator_variable,
    reference_polynomial,
)
from .polynomials import (
    MONOMIAL,
    Basis,
    Polynomial,
    convert_basis,
    quasi_basis,
    quasi_monomial,
)
from .rationals import as_fraction, format_fraction, parse_fraction
from .representations import (
    ShiftOperator,
    apply_continuum,
    backward_difference,
    forward_difference,
    lattice_raising,
    realize_lattice,
)
from .spectral import (
    FamilyEntry,
    FamilyTable,
    IsospectralityCertificate,
    OperatorMatrix,
    SpectralReport,
    SubspaceReport,
    char_poly,
    continuum_matrix,
    discrete_family,
    eigenpairs_triangular,
    invariant_subspace_check,
    isospectral_check,
    lattice_matrix,
    spectral_report,
    stencil_extract,
    substitute_quasi,
    verify_pointwise,
)

__version__ = "0.1.0"
