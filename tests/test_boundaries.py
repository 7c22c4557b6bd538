"""Input rules shared by every entry point: exact integers and name spelling."""

import contextlib
import io
import re
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from isospec.algebra import AlgebraElement, gen_a, sl2_generator
from isospec.cli import main as cli_main
from isospec.errors import ParameterError
from isospec.operators import (QesQuadraticForm, SecondOrderParams, classical_preset,
                               discrete_preset)
from isospec.oracles import family, reference_polynomial
from isospec.polynomials import MONOMIAL, Basis, Polynomial, quasi_monomial
from isospec.rationals import as_fraction, format_fraction, parse_fraction
from isospec.representations import ShiftOperator, apply_continuum, realize_lattice
from isospec.spectral import (OperatorMatrix, continuum_matrix, discrete_family,
                              invariant_subspace_check, isospectral_check, lattice_matrix)
from isospec.verify import run, run_suite


@pytest.mark.parametrize("build, error", [
    (lambda: AlgebraElement({(1.5, 0): 1}), ValueError),
    (lambda: AlgebraElement.from_json_obj([{"m": True, "n": 2.9, "coeff": "1"}]), ValueError),
    (lambda: ShiftOperator(1, {1.7: [1]}), ValueError),
    (lambda: sl2_generator("plus", True), ValueError),
    (lambda: QesQuadraticForm(True), ParameterError),
    (lambda: quasi_monomial(True, 1), ValueError),
    (lambda: invariant_subspace_check(gen_a(), True), ValueError),
    (lambda: Polynomial.identity() ** True, ValueError),
    (lambda: reference_polynomial(family("hermite"), True), ParameterError),
    (lambda: continuum_matrix(gen_a(), True), ValueError),
    (lambda: discrete_family("hermite", 1, True), ValueError),
], ids=["element-key", "element-json", "shift", "sl2-spin", "qes-spin", "quasi-monomial",
        "subspace-spin", "power", "reference-degree", "matrix-degree", "k-max"])
def test_floats_and_bools_are_not_integers(build, error):
    with pytest.raises(error):
        build()


@pytest.mark.parametrize("trials", [-3, 0, True, 2.0])
@pytest.mark.parametrize("call", [run_suite, run], ids=["run_suite", "run"])
def test_trials_must_be_an_integer_of_at_least_one(call, trials):
    with pytest.raises(ParameterError):
        call("stencils", trials=trials)


@pytest.mark.parametrize("seed", [1.5, True, "7", None])
@pytest.mark.parametrize("call", [run_suite, run], ids=["run_suite", "run"])
def test_seed_must_be_an_integer(call, seed):
    with pytest.raises(ParameterError, match="seed"):
        call("hermite", seed=seed)


def test_negative_seeds_are_accepted():
    assert run_suite("hermite", seed=-3).ok
    assert run("hermite", seed=-3)["seed"] == -3


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


rationals = st.fractions(max_denominator=10**12) | st.integers(-10**60, 10**60).map(Fraction)


@given(rationals, st.sampled_from(["", " ", "\t", "\n "]))
def test_wire_rationals_round_trip(value, pad):
    text = format_fraction(value)
    assert parse_fraction(pad + text + pad) == value


@given(rationals.filter(lambda v: v.denominator > 1), st.integers(2, 9))
def test_unreduced_fractions_are_rejected(value, factor):
    with pytest.raises(ValueError):
        parse_fraction(f"{value.numerator * factor}/{value.denominator * factor}")


@given(st.integers(0, 10**9), st.integers(0, 10**6))
def test_decimal_and_exponent_forms_are_rejected(whole, part):
    for text in (f"{whole}.{part}", f"{whole}e{part}", f"{whole}E-{part}", f"+{whole}"):
        with pytest.raises(ValueError):
            parse_fraction(text)


@pytest.mark.parametrize("text", [
    "0.1", "1e3", "2/4", "4/1", "0/3", "-0", "007", "1/0", "1/-2", "1 / 2", "", " ", "/2",
    "1_000", "\u0661", "inf", "nan", "1e999999999", "9" * 4301, "1/" + "7" * 4301,
])
def test_non_canonical_wire_text_is_rejected(text):
    with pytest.raises(ValueError):
        parse_fraction(text)


@pytest.mark.parametrize("build", [
    lambda: as_fraction("0.5"),
    lambda: Polynomial(["1", "2/4"]),
    lambda: ShiftOperator("3/6", {1: ["1"]}),
    lambda: SecondOrderParams("+1", 0, 0, 0, 0, 0),
    lambda: Polynomial.from_json_obj({"basis": "monomial", "coeffs": ["1e3"]}),
], ids=["as_fraction", "Polynomial", "ShiftOperator", "SecondOrderParams", "from_json_obj"])
def test_library_strings_follow_the_wire_form(build):
    with pytest.raises(ValueError):
        build()


@pytest.mark.parametrize("build", [
    lambda: ShiftOperator.from_json_obj({"delta": "1", "terms": [
        {"shift": 1, "coeffs": ["1"]}, {"shift": 1, "coeffs": ["2"]}]}),
    lambda: AlgebraElement.from_json_obj([
        {"m": 1, "n": 0, "coeff": "1"}, {"m": 1, "n": 0, "coeff": "2"}]),
    lambda: Polynomial.from_json_obj({"basis": "monomial", "coeffs": "12"}),
    lambda: ShiftOperator.from_json_obj({"delta": "1", "terms": [{"shift": 1, "coeffs": "12"}]}),
    lambda: Basis.from_json_obj("quasi"),
    lambda: Basis.from_json_obj({"quasi": "1", "step": "2"}),
    lambda: ShiftOperator.from_json_obj({"delta": "1", "terms": "ab"}),
    lambda: ShiftOperator.from_json_obj({"delta": "1", "terms": [[1, ["1"]]]}),
    lambda: AlgebraElement.from_json_obj({"m": 1, "n": 0, "coeff": "1"}),
    lambda: AlgebraElement.from_json_obj(["ab"]),
    lambda: Polynomial.from_json_obj(["1"]),
], ids=["shift-twice", "term-twice", "coeffs-string", "shift-coeffs-string", "basis-string",
        "basis-extra-key", "terms-string", "shift-term-list", "element-object",
        "element-term-string", "polynomial-list"])
def test_wire_readers_refuse_input_they_would_misread(build):
    with pytest.raises(ValueError):
        build()


@pytest.mark.parametrize("read, obj, key", [
    (ShiftOperator.from_json_obj, {"delta": "1"}, "terms"),
    (ShiftOperator.from_json_obj, {"delta": "1", "terms": [], "junk": 1}, "junk"),
    (ShiftOperator.from_json_obj, {"delta": "1", "terms": [{"shift": 1}]}, "coeffs"),
    (ShiftOperator.from_json_obj,
     {"delta": "1", "terms": [{"shift": 1, "coeffs": ["1"], "basis": "monomial"}]}, "basis"),
    (Polynomial.from_json_obj, {"coeffs": ["1"]}, "basis"),
    (Polynomial.from_json_obj, {"basis": "monomial", "coeffs": ["1"], "degree": 0}, "degree"),
    (AlgebraElement.from_json_obj, [{"m": 1, "coeff": "1"}], "n"),
    (AlgebraElement.from_json_obj, [{"m": 1, "n": 0, "coeff": "1", "x": 2}], "x"),
], ids=["operator-missing", "operator-extra", "term-missing", "term-extra", "polynomial-missing",
        "polynomial-extra", "element-missing", "element-extra"])
def test_wire_readers_name_a_missing_or_unexpected_key(read, obj, key):
    with pytest.raises(ValueError, match=repr(key)):
        read(obj)


@pytest.mark.parametrize("build", [
    lambda: Polynomial("12"),
    lambda: Polynomial(b"12"),
    lambda: Polynomial({1: 2}),
    lambda: Polynomial({1, 2}),
    lambda: Polynomial(frozenset({2})),
    lambda: ShiftOperator(1, {0: "12"}),
    lambda: ShiftOperator(1, {0: {1: 2}}),
], ids=["str", "bytes", "mapping", "set", "frozenset", "shift-str", "shift-mapping"])
def test_coefficients_are_not_read_from_text_mappings_or_sets(build):
    with pytest.raises(TypeError):
        build()


@pytest.mark.parametrize("build", [
    lambda: ShiftOperator(1, [[1, 2]]),
    lambda: AlgebraElement([((1, 0), 1)]),
    lambda: AlgebraElement(((1, 0), 1)),
], ids=["shift-pairs", "element-pairs", "element-tuple"])
def test_term_maps_must_be_mappings(build):
    with pytest.raises(TypeError, match="mapping"):
        build()


_OPERATOR = ShiftOperator(1, {1: [1], 0: [-1]})


@pytest.mark.parametrize("call, expected", [
    (lambda: realize_lattice(_OPERATOR, 1), "AlgebraElement"),
    (lambda: realize_lattice({(1, 0): 1}, 1), "AlgebraElement"),
    (lambda: continuum_matrix(_OPERATOR, 3), "AlgebraElement"),
    (lambda: apply_continuum(_OPERATOR, Polynomial.identity()), "AlgebraElement"),
    (lambda: isospectral_check(_OPERATOR, 1, 3), "AlgebraElement"),
    (lambda: lattice_matrix(gen_a(), 3), "ShiftOperator"),
], ids=["realize-operator", "realize-dict", "continuum-matrix", "apply-continuum",
        "isospectral-check", "lattice-matrix"])
def test_a_wrong_kind_of_argument_names_the_type_expected(call, expected):
    with pytest.raises(TypeError, match=f"must be an? {expected}, got "):
        call()


@pytest.mark.parametrize("key", [(1, 0, 2), (1,), (), 5], ids=["triple", "single", "empty", "int"])
def test_element_keys_must_be_pairs(key):
    with pytest.raises(ValueError, match=re.escape(repr(key))):
        AlgebraElement({key: 1})


@pytest.mark.parametrize("entries", [
    ((Fraction(1), Fraction(2)),),
    ((Fraction(1),), (Fraction(2),)),
    ((Fraction(1), Fraction(0)), (Fraction(0),)),
    ((),),
], ids=["one-by-two", "two-by-one", "ragged", "empty-row"])
def test_matrix_rows_must_be_square(entries):
    with pytest.raises(ValueError):
        OperatorMatrix(MONOMIAL, entries)


@pytest.mark.parametrize("bad", [True, 1.5, 1, "1"], ids=["bool", "float", "int", "str"])
def test_matrix_entries_must_be_fractions(bad):
    with pytest.raises(TypeError):
        OperatorMatrix(MONOMIAL, ((Fraction(0), Fraction(0)), (Fraction(0), bad)))


def test_digit_cap_admits_the_longest_integer_python_prints():
    assert parse_fraction("9" * 4300) == 10**4300 - 1


@pytest.mark.parametrize("flag, text", [("--delta", "0.5"), ("--delta", "1e3"),
                                        ("--delta", "2/4"), ("--alpha", "1e999999999")])
def test_cli_rejects_non_canonical_rationals(flag, text, capsys):
    argv = ["discretize", "--op", "laguerre", "--delta", "1", flag, text]
    assert cli_main(argv) == 2
    assert flag in capsys.readouterr().err
