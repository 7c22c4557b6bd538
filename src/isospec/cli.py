"""Command-line front end.

Subcommands: ``discretize`` (lattice form of an operator), ``stencil``
(its support and coefficients), ``spectrum`` (exact matrix, characteristic
polynomial, eigenpairs), ``family`` (tables of lattice counterparts of the
classical families) and ``verify`` (the machine-checkable identity suites).

All rationals cross this boundary as reduced ``p/q`` strings; there is no
floating point anywhere in the I/O.  Exit codes: 0 success, 1 verification
failure, 2 usage error (including a file that cannot be written and a
size flag outside its documented range), 3 mathematical domain error.

Integer flags and ``ISOSPEC_SEED`` are read strictly, in the wire form of
:func:`~isospec.rationals.parse_fraction` without a denominator: ``1_0``,
``+2``, ``010`` or non-ASCII digits are usage errors, never another number.
Size flags are bounded so that no input can ask for an unbounded amount of
exact arithmetic: ``--degree``, ``--kmax`` and ``--spin`` take 0..500 and
``--trials`` takes 1..1000.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from . import verify as verify_mod
from .errors import (
    BasisMismatchError,
    DegenerateSpectrumError,
    IsospecError,
    ParameterError,
    StepMismatchError,
    SubspaceOverflowError,
    canonical_name,
    require,
)
from .operators import (
    CLASSICAL_PRESETS,
    QesQuadraticForm,
    SecondOrderParams,
    ThreePointParams,
    classical_preset,
    discrete_preset,
    eigenvalue_convention_note,
    qes_quadratic_element,
    qes_three_point_operator,
    second_order_element,
    three_point_operator,
)
from .polynomials import MONOMIAL, quasi_basis
from .rationals import format_fraction, parse_fraction
from .representations import ShiftOperator, realize_lattice
from .spectral import (
    _spectral_report,
    char_poly,
    continuum_matrix,
    discrete_family,
    lattice_matrix,
    stencil_extract,
)

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_DOMAIN = 3

_CLASSICAL = tuple(CLASSICAL_PRESETS)
_OPERATORS = _CLASSICAL + ("e2", "three-point", "qes2", "qes3")

MAX_SIZE = 500
MAX_TRIALS = 1000


class UsageError(Exception):
    pass


def _parse_fraction_arg(text: str, what: str) -> Fraction:
    try:
        return parse_fraction(text)
    except ValueError as exc:
        raise UsageError(f"{what}: {exc}") from exc


def _parse_int_arg(text: str) -> int:
    """An integer flag or ``ISOSPEC_SEED``: ``"p"`` in the wire form of
    parse_fraction (surrounding blanks allowed), else ArgumentTypeError."""
    try:
        value = parse_fraction(text)
        if value.denominator == 1:
            return value.numerator
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"not an integer: {text!r}")


def _bounded(value: int, flag: str, low: int, high: int) -> int:
    """``value`` if it lies in ``low..high``, else ParameterError (exit 2)."""
    require(low <= value <= high, f"{flag} must be an integer in {low}..{high}, got {value}")
    return value


def _parse_params(text: str, count: int, what: str) -> list[Fraction]:
    parts = text.split(",")
    if len(parts) != count:
        raise UsageError(f"{what} needs {count} comma-separated rationals, got {len(parts)}")
    return [_parse_fraction_arg(p, what) for p in parts]


_FAMILY_FLAGS = ("alpha", "beta", "gamma", "mu", "nu", "size")


def _family_kwargs(args) -> dict:
    """The family-parameter flags that were given; the family rejects any
    it does not take."""
    out = {}
    for name in _FAMILY_FLAGS:
        value = getattr(args, name, None)
        if value is not None:
            out[name] = value if name == "size" else _parse_fraction_arg(value, f"--{name}")
    return out


# flags that only some operators take, and the operators that take them
_OPERATOR_FLAGS = {"spin": ("qes2", "qes3"), "aplus": ("qes3",), "preset": ("three-point",),
                   "params": ("e2", "three-point", "qes2", "qes3")}


def _resolve_operator(args):
    """Build the requested operator.

    Returns (element, shift_op, step, name, notes): abstract elements carry
    ``shift_op=None`` until a step is known; lattice-native families come
    back realized with their own step.
    """
    op = canonical_name(args.op)
    if op not in _OPERATORS:
        raise UsageError(f"unknown operator {args.op!r}; choose from {list(_OPERATORS)}")
    step = None
    if getattr(args, "delta", None) is not None:
        step = _parse_fraction_arg(args.delta, "--delta")
        if step == 0:
            raise UsageError("--delta must be nonzero")
    notes = []
    for flag, takers in _OPERATOR_FLAGS.items():
        if getattr(args, flag) is not None and op not in takers:
            raise UsageError(f"--{flag} applies only to --op {' or '.join(takers)}")
    if args.preset is not None and args.params is not None:
        raise UsageError("--op three-point takes --preset or --params, not both")
    # inline coefficients take no family parameters: never drop one silently
    given = [f"--{name}" for name in _FAMILY_FLAGS if getattr(args, name, None) is not None]
    if args.params is not None and given:
        raise UsageError(f"--op {op} with --params takes no family flags, got {', '.join(given)}")
    if args.spin is not None:
        _bounded(args.spin, "--spin", 0, MAX_SIZE)

    if op in _CLASSICAL:
        element = second_order_element(classical_preset(op, **_family_kwargs(args)))
        note = eigenvalue_convention_note(op)
        if note:
            notes.append(note)
        return element, None, step, op, notes

    if op == "e2":
        if not args.params:
            raise UsageError("--op e2 needs --params a0,a1,a2,b0,b1,c0")
        vals = _parse_params(args.params, 6, "--params")
        element = second_order_element(SecondOrderParams(*vals))
        return element, None, step, op, notes

    if op == "three-point":
        if args.preset:
            params = discrete_preset(args.preset, **_family_kwargs(args))
            if step is not None and step != params.step:
                raise UsageError(
                    f"--delta {format_fraction(step)} conflicts with the "
                    f"{args.preset} preset step {format_fraction(params.step)}"
                )
        else:
            if not args.params:
                raise UsageError(
                    "--op three-point needs --preset or --params A1,A2,A3,A4,A5 with --delta"
                )
            if step is None:
                raise UsageError("--op three-point with --params needs --delta")
            vals = _parse_params(args.params, 5, "--params")
            params = ThreePointParams(*vals, step=step)
        return None, three_point_operator(params), params.step, op, notes

    if op == "qes2":
        if args.spin is None or not args.params:
            raise UsageError(
                "--op qes2 needs --spin and --params with the ten quadratic-form "
                "coefficients (plus-plus, plus-zero, plus-minus, zero-zero, "
                "zero-minus, minus-minus, plus, zero, minus, const)"
            )
        vals = _parse_params(args.params, 10, "--params")
        element = qes_quadratic_element(QesQuadraticForm(args.spin, *vals))
        return element, None, step, op, notes

    # op == "qes3"
    if args.spin is None or not args.params or args.aplus is None:
        raise UsageError("--op qes3 needs --spin, --aplus and --params A1,A2,A3,A4,A5")
    if step is None:
        raise UsageError("--op qes3 needs --delta")
    vals = _parse_params(args.params, 5, "--params")
    aplus = _parse_fraction_arg(args.aplus, "--aplus")
    shift_op = qes_three_point_operator(aplus, ThreePointParams(*vals, step=step), args.spin)
    return None, shift_op, step, op, notes


def _need_shift_operator(args) -> tuple[ShiftOperator, str, list[str]]:
    element, shift_op, step, name, notes = _resolve_operator(args)
    if shift_op is None:
        if step is None:
            raise UsageError(f"--op {name} needs --delta to be discretized")
        shift_op = realize_lattice(element, step)
    return shift_op, name, notes


def _emit(text: str, output: str | None):
    if output:
        with open(output, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _emit_json(obj, output: str | None):
    _emit(json.dumps(obj, indent=2) + "\n", output)


def _shift_operator_text(op: ShiftOperator, name: str) -> str:
    shifts, coeffs = stencil_extract(op)
    lines = [
        f"operator: {name}",
        f"delta: {format_fraction(op.step)}",
        f"points: {len(shifts)} (width {op.width}): "
        + ", ".join(f"{k:+d}" for k in shifts),
    ]
    for k, poly in zip(reversed(shifts), reversed(coeffs)):
        lines.append(f"  T^{{{k:+d}}}: {poly}")
    return "\n".join(lines) + "\n"


def _cmd_discretize(args) -> int:
    shift_op, name, _ = _need_shift_operator(args)
    if args.format == "text":
        _emit(_shift_operator_text(shift_op, name), args.output)
    else:
        obj = shift_op.to_json_obj()
        obj["points"] = list(shift_op.shifts)
        _emit_json(obj, args.output)
    return EXIT_OK


def _cmd_stencil(args) -> int:
    shift_op, name, _ = _need_shift_operator(args)
    if args.format == "text":
        _emit(_shift_operator_text(shift_op, name), args.output)
        return EXIT_OK
    wire = shift_op.to_json_obj()
    obj = {
        "delta": wire["delta"],
        "points": list(shift_op.shifts),
        "n_points": shift_op.n_points,
        "width": shift_op.width,
        "coefficients": wire["terms"],
    }
    _emit_json(obj, args.output)
    return EXIT_OK


def _cmd_spectrum(args) -> int:
    element, shift_op, step, name, notes = _resolve_operator(args)
    degree = _bounded(args.degree, "--degree", 0, MAX_SIZE)
    if element is not None and step is None:
        if args.basis is not None:
            raise UsageError("--basis applies only to lattice spectra; give --delta")
        matrix = continuum_matrix(element, degree)
        cp = char_poly(matrix)
        representation = "continuum"
    else:
        if shift_op is None:
            shift_op = realize_lattice(element, step)
        own = quasi_basis(shift_op.step)
        if args.basis == "monomial":
            basis = MONOMIAL
        elif args.basis == "quasi":
            basis = own
        elif element is not None:
            # realized from an abstract element: the isospectral ladder view
            basis = own
        else:
            # lattice-native family: its own variable
            basis = MONOMIAL
        matrix = lattice_matrix(shift_op, degree, basis=basis)
        # a change of basis is a similarity, so the char poly is taken on the
        # own ladder, where the matrix is banded or triangular
        cp = char_poly(matrix if basis == own else lattice_matrix(shift_op, degree))
        representation = "lattice"
    report = _spectral_report(matrix, cp, notes=tuple(notes))
    obj = {"operator": name, "representation": representation, "degree": degree}
    obj.update(report.to_json_obj())
    if args.format == "text":
        lines = [
            f"operator: {name} ({representation}, degree bound {degree})",
            f"diagonal: {', '.join(format_fraction(d) for d in matrix.diagonal)}",
            f"char poly coeffs (low to high): "
            + ", ".join(format_fraction(c) for c in report.char_poly.coeffs),
            f"triangular: {report.triangular}",
        ]
        if report.eigenpairs is not None:
            for lam, vec in report.eigenpairs:
                lines.append(f"  lambda = {format_fraction(lam)}: {vec}")
        if report.warning:
            lines.append(f"warning: {report.warning}")
        for note in report.notes:
            lines.append(f"note: {note}")
        _emit("\n".join(lines) + "\n", args.output)
    else:
        _emit_json(obj, args.output)
    return EXIT_OK


def _cmd_family(args) -> int:
    step = _parse_fraction_arg(args.delta, "--delta")
    _bounded(args.kmax, "--kmax", 0, MAX_SIZE)
    table = discrete_family(args.name, step, args.kmax, **_family_kwargs(args))
    if args.format == "json":
        _emit_json(table.to_json_obj(), args.output)
        return EXIT_OK
    k_max = args.kmax
    header = (
        ["k", "eigenvalue", "verified"]
        + [f"m{i}" for i in range(k_max + 1)]
        + [f"q{i}" for i in range(k_max + 1)]
    )
    lines = [",".join(header)]
    for entry in table.entries:
        row = [str(entry.degree), format_fraction(entry.eigenvalue),
               "true" if entry.verified else "false"]
        row += [format_fraction(entry.monomial.coefficient(i)) for i in range(k_max + 1)]
        row += [format_fraction(entry.quasi.coefficient(i)) for i in range(k_max + 1)]
        lines.append(",".join(row))
    _emit("\n".join(lines) + "\n", args.output)
    return EXIT_OK


def _cmd_verify(args) -> int:
    seed = args.seed
    if seed is None:
        env = os.environ.get("ISOSPEC_SEED")
        if env is not None:
            try:
                seed = _parse_int_arg(env)
            except argparse.ArgumentTypeError as exc:
                raise UsageError(f"ISOSPEC_SEED must be an integer, got {env!r}") from exc
        else:
            seed = verify_mod.DEFAULT_SEED
    if args.trials is not None:
        _bounded(args.trials, "--trials", 1, MAX_TRIALS)
    summary = verify_mod.run(args.suite, seed=seed, trials=args.trials)
    _emit_json(summary, args.output)
    return EXIT_OK if summary["ok"] else EXIT_VERIFY_FAILED


def _add_operator_args(parser: argparse.ArgumentParser):
    parser.add_argument("--op", required=True,
                        help="hermite | laguerre | legendre | jacobi | e2 | "
                             "three-point | qes2 | qes3")
    parser.add_argument("--params", help="comma-separated rational coefficients")
    parser.add_argument("--preset",
                        help="three-point preset: hahn | hahn-continued | meixner | charlier")
    parser.add_argument("--alpha", help="family parameter alpha (rational)")
    parser.add_argument("--beta", help="family parameter beta (rational)")
    parser.add_argument("--gamma", help="family parameter gamma (rational)")
    parser.add_argument("--mu", help="family parameter mu (rational)")
    parser.add_argument("--nu", help="family parameter nu (rational)")
    parser.add_argument("--size", type=_parse_int_arg, help="grid size for the finite families")
    parser.add_argument("--spin", type=_parse_int_arg,
                        help=f"representation spin for qes2/qes3 (0..{MAX_SIZE})")
    parser.add_argument("--aplus", help="raising coefficient for qes3 (rational)")
    parser.add_argument("--delta", help="lattice step as a rational (e.g. 1/2)")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="isospec",
        description="Exact lattice discretization of solvable operators, with "
                    "spectral certificates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_disc = sub.add_parser("discretize", help="lattice form of an operator")
    _add_operator_args(p_disc)
    p_disc.add_argument("--format", choices=("json", "text"), default="json")
    p_disc.add_argument("--output", help="write to this path instead of stdout")
    p_disc.set_defaults(func=_cmd_discretize)

    p_sten = sub.add_parser("stencil", help="stencil points and coefficients")
    _add_operator_args(p_sten)
    p_sten.add_argument("--format", choices=("json", "text"), default="json")
    p_sten.add_argument("--output")
    p_sten.set_defaults(func=_cmd_stencil)

    p_spec = sub.add_parser("spectrum", help="matrix, characteristic polynomial, eigenpairs")
    _add_operator_args(p_spec)
    p_spec.add_argument("--degree", type=_parse_int_arg, required=True,
                        help=f"degree bound (0..{MAX_SIZE})")
    p_spec.add_argument("--basis", choices=("monomial", "quasi"), default=None,
                        help="matrix basis for lattice spectra")
    p_spec.add_argument("--format", choices=("json", "text"), default="json")
    p_spec.add_argument("--output")
    p_spec.set_defaults(func=_cmd_spectrum)

    p_fam = sub.add_parser("family", help="table of lattice counterparts of a classical family")
    p_fam.add_argument("--name", required=True,
                       help="discrete-hermite | discrete-laguerre | discrete-legendre | discrete-jacobi")
    p_fam.add_argument("--delta", required=True, help="lattice step (rational)")
    p_fam.add_argument("--kmax", type=_parse_int_arg, required=True,
                       help=f"highest degree (0..{MAX_SIZE})")
    p_fam.add_argument("--alpha", help="family parameter alpha (rational)")
    p_fam.add_argument("--beta", help="family parameter beta (rational)")
    p_fam.add_argument("--format", choices=("csv", "json"), default="csv")
    p_fam.add_argument("--output")
    p_fam.set_defaults(func=_cmd_family)

    p_ver = sub.add_parser("verify", help="run the verification suites")
    p_ver.add_argument("--suite", default="all",
                       help="all | " + " | ".join(verify_mod.SUITE_NAMES))
    p_ver.add_argument("--seed", type=_parse_int_arg, default=None,
                       help="random seed (flag beats ISOSPEC_SEED beats the default "
                            f"{verify_mod.DEFAULT_SEED})")
    p_ver.add_argument("--trials", type=_parse_int_arg, default=None,
                       help=f"override the per-suite trial counts (1..{MAX_TRIALS})")
    p_ver.add_argument("--output")
    p_ver.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"isospec: usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ParameterError as exc:
        print(f"isospec: parameter error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (SubspaceOverflowError, DegenerateSpectrumError, StepMismatchError,
            BasisMismatchError) as exc:
        print(f"isospec: domain error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except IsospecError as exc:
        print(f"isospec: error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except ValueError as exc:
        print(f"isospec: usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"isospec: error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
