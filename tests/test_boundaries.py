"""Input rules shared by every entry point: exact integers and name spelling."""

import contextlib
import io

import pytest

from isospec.algebra import AlgebraElement, gen_a, sl2_generator
from isospec.cli import main as cli_main
from isospec.errors import ParameterError
from isospec.operators import QesQuadraticForm, classical_preset, discrete_preset
from isospec.oracles import family, reference_polynomial
from isospec.polynomials import Polynomial, quasi_monomial
from isospec.representations import ShiftOperator, fock_vector
from isospec.spectral import continuum_matrix, discrete_family, invariant_subspace_check
from isospec.verify import run_suite


@pytest.mark.parametrize("build, error", [
    (lambda: AlgebraElement({(1.5, 0): 1}), ValueError),
    (lambda: AlgebraElement.from_json_obj([{"m": True, "n": 2.9, "coeff": "1"}]), ValueError),
    (lambda: ShiftOperator(1, {1.7: [1]}), ValueError),
    (lambda: sl2_generator("plus", True), ValueError),
    (lambda: QesQuadraticForm(True), ParameterError),
    (lambda: quasi_monomial(True, 1), ValueError),
    (lambda: invariant_subspace_check(gen_a(), True), ValueError),
    (lambda: Polynomial.identity() ** True, ValueError),
    (lambda: fock_vector(True, 1), ValueError),
    (lambda: reference_polynomial(family("hermite"), True), ParameterError),
    (lambda: continuum_matrix(gen_a(), True), ValueError),
    (lambda: discrete_family("hermite", 1, True), ValueError),
], ids=["element-key", "element-json", "shift", "sl2-spin", "qes-spin", "quasi-monomial",
        "subspace-spin", "power", "fock", "reference-degree", "matrix-degree", "k-max"])
def test_floats_and_bools_are_not_integers(build, error):
    with pytest.raises(error):
        build()


def _cli_stdout(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli_main(argv) == 0
    return out.getvalue()


@pytest.mark.parametrize("call, spelled, canonical", [
    (lambda n: discrete_family(n, 1, 2).to_json_obj(), " Discrete_Hermite ", "discrete-hermite"),
    (classical_preset, " Legendre", "legendre"),
    (lambda n: discrete_preset(n, mu=1, nu=0, size=3), "HAHN_Continued", "hahn-continued"),
    (lambda n: family(n, mu=2), "Charlier ", "charlier"),
    (lambda n: run_suite(n, trials=1).to_json_obj(), "second_order", "second-order"),
    (lambda n: _cli_stdout(["stencil", "--op", n, "--params", "1,2,3,4,5", "--delta", "1"]),
     "three_point", "three-point"),
    (lambda n: _cli_stdout(["discretize", "--op", "three-point", "--preset", n, "--mu", "2"]),
     " Charlier ", "charlier"),
], ids=["discrete_family", "classical_preset", "discrete_preset", "oracles.family",
        "run_suite", "cli-op", "cli-preset"])
def test_names_ignore_case_blanks_and_underscores(call, spelled, canonical):
    assert call(spelled) == call(canonical)
