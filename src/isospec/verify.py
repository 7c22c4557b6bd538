"""Machine-checkable verification suites.

Every structural claim the library makes is re-checked here over exact
rationals: defining identities of the lattice realization, closed-form
stencils, stencil widths, spectral certificates, the discrete families and
their reference oracles, and invariant-subspace preservation.  Randomized
suites draw from a seeded generator so runs are reproducible; a fixed seed
yields byte-identical summaries.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .algebra import gen_a, gen_b, sl2_generator, AlgebraElement
from .errors import ParameterError, canonical_name, require_int
from .operators import (
    CLASSICAL_PRESETS,
    DISCRETE_PRESETS,
    QesQuadraticForm,
    SecondOrderParams,
    ThreePointParams,
    classical_preset,
    qes_quadratic_element,
    qes_three_point_element,
    second_order_element,
    second_order_stencil,
    three_point_diagonal,
    three_point_operator,
    three_point_stencil,
)
from .polynomials import MONOMIAL, Polynomial
from .rationals import format_fraction
from .representations import (
    ShiftOperator,
    apply_continuum,
    backward_difference,
    forward_difference,
    lattice_raising,
    realize_lattice,
)
from .spectral import (
    continuum_matrix,
    discrete_family,
    eigenpairs_triangular,
    invariant_subspace_check,
    isospectral_check,
    lattice_matrix,
    stencil_extract,
)
from . import oracles

__all__ = [
    "DEFAULT_SEED",
    "STEP_SET",
    "CheckResult",
    "SuiteResult",
    "SUITE_NAMES",
    "run_suite",
    "run",
]

DEFAULT_SEED = 7
STEP_SET = (Fraction(1), Fraction(-1), Fraction(1, 2), Fraction(3, 7))


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    details: str

    def to_json_obj(self) -> dict:
        return {"name": self.name, "passed": self.passed, "details": self.details}


@dataclass(frozen=True)
class SuiteResult:
    suite: str
    trials: int | None
    checks: tuple[CheckResult, ...]

    @property
    def n_passed(self) -> int:
        return sum(1 for c in self.checks if c.passed)

    @property
    def n_failed(self) -> int:
        return sum(1 for c in self.checks if not c.passed)

    @property
    def ok(self) -> bool:
        return self.n_failed == 0

    def to_json_obj(self) -> dict:
        return {
            "suite": self.suite,
            "trials": self.trials,
            "checks": [c.to_json_obj() for c in self.checks],
            "passed": self.n_passed,
            "failed": self.n_failed,
        }


def _rng(seed: int, suite: str) -> random.Random:
    return random.Random(f"{seed}:{suite}")


def _rand_fraction(rng: random.Random, nonzero=False) -> Fraction:
    """p/q with |p| <= 9 and 1 <= q <= 5; nonzero on request."""
    while True:
        value = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
        if value or not nonzero:
            return value


def _steps_str() -> str:
    return ", ".join(format_fraction(s) for s in STEP_SET)


# -- heisenberg: defining identities of the realization ------------------


def _suite_heisenberg(seed: int, trials: int | None) -> SuiteResult:
    rng = _rng(seed, "heisenberg")
    checks = []

    ok = True
    for step in STEP_SET:
        a_op = realize_lattice(gen_a(), step)
        b_op = realize_lattice(gen_b(), step)
        ok = ok and a_op.commutator(b_op) == ShiftOperator.identity(step)
    checks.append(CheckResult(
        "lattice commutator [a, b] is the identity operator",
        ok, f"steps {{{_steps_str()}}}"))

    ok = True
    for step in STEP_SET:
        dp, dm = forward_difference(step), backward_difference(step)
        ok = ok and (dp - dm) == step * (dm * dp)
    checks.append(CheckResult(
        "forward minus backward difference equals step times their product",
        ok, f"steps {{{_steps_str()}}}"))

    # x^(0)..x^(21) per step, built once by the recurrence
    # x^(n+1) = (x - n*step) * x^(n): the reference the realization is checked
    # against, independent of ShiftOperator.apply
    ladders = []
    for step in STEP_SET:
        ladder = [Polynomial.constant(1)]
        for n in range(21):
            ladder.append(Polynomial((-n * step, 1)) * ladder[n])
        ladders.append(ladder)

    ok = True
    for step, ladder in zip(STEP_SET, ladders):
        a_op, b_op = forward_difference(step), lattice_raising(step)
        for n in range(21):
            ok = ok and b_op.apply(ladder[n]) == ladder[n + 1]
            down = a_op.apply(ladder[n])
            if n:
                ok = ok and down == n * ladder[n - 1]
            else:
                ok = ok and down.is_zero
    checks.append(CheckResult(
        "ladder action on quasi-monomials up to degree 20",
        ok, f"steps {{{_steps_str()}}}, n <= 20"))

    ok = True
    for step, ladder in zip(STEP_SET, ladders):
        # one walk up from the vacuum per step: b^n 1 = x^(n)
        b_op, rung = lattice_raising(step), Polynomial.constant(1)
        ok = ok and rung == ladder[0]
        for n in range(1, 21):
            rung = b_op.apply(rung)
            ok = ok and rung == ladder[n]
    checks.append(CheckResult(
        "iterated raising of the constant equals the quasi-monomial",
        ok, "n <= 20"))

    ok = True
    for n in range(7):
        jp, jz, jm = (sl2_generator(k, n) for k in ("plus", "zero", "minus"))
        ok = ok and jz.commutator(jm) == -1 * jm
        ok = ok and jz.commutator(jp) == jp
        ok = ok and jp.commutator(jm) == -2 * jz
    checks.append(CheckResult("sl2 relations for spin 0..6", ok, "exact element identities"))

    n_pairs = 25
    ok = True
    for _ in range(n_pairs):
        u = AlgebraElement({
            (rng.randint(0, 3), rng.randint(0, 3)): _rand_fraction(rng)
            for _ in range(2)
        })
        v = AlgebraElement({
            (rng.randint(0, 3), rng.randint(0, 3)): _rand_fraction(rng)
            for _ in range(2)
        })
        w = u * v
        for d in range(21):
            mono = Polynomial.unit_vector(d)
            ok = ok and apply_continuum(w, mono) == apply_continuum(u, apply_continuum(v, mono))
    checks.append(CheckResult(
        "normal-ordered products agree with operator composition",
        ok, f"{n_pairs} random pairs applied to monomials up to degree 20"))

    return SuiteResult("heisenberg", None, tuple(checks))


# -- second-order: realization equals the five-term closed form -------------


def _draw_second_order(rng, generic=False) -> SecondOrderParams:
    """a0, a1, a2 (nonzero when ``generic``), then b0, b1, c0."""
    return SecondOrderParams(*(_rand_fraction(rng, nonzero=generic and i < 3) for i in range(6)))


def _draw_three_point(rng, step=None, nonzero=False) -> ThreePointParams:
    """A1..A5, then a step from STEP_SET unless ``step`` is given."""
    a1, a2, a3, a4, a5 = (_rand_fraction(rng, nonzero=nonzero) for _ in range(5))
    if step is None:
        step = STEP_SET[rng.randrange(len(STEP_SET))]
    return ThreePointParams(a1=a1, a2=a2, a3=a3, a4=a4, a5=a5, step=step)


def _hermite_display(step: Fraction) -> ShiftOperator:
    inv2 = Fraction(1) / step**2
    inv = Fraction(1) / step
    return ShiftOperator(step, {
        2: Polynomial.constant(inv2),
        1: Polynomial.constant(-2 * inv2),
        0: Polynomial((inv2, -2 * inv)),
        -1: Polynomial((0, 2 * inv)),
    })


def _suite_second_order(seed: int, trials: int | None) -> SuiteResult:
    rng = _rng(seed, "second-order")
    n_trials = trials or 20
    checks = []

    bad = 0
    for _ in range(n_trials):
        params = _draw_second_order(rng)
        for step in STEP_SET:
            realized = realize_lattice(second_order_element(params), step)
            if realized != second_order_stencil(params, step):
                bad += 1
    checks.append(CheckResult(
        "realized second-order operator equals the five-term closed form",
        bad == 0, f"{n_trials} random draws x steps {{{_steps_str()}}}, {bad} mismatches"))

    hermite = second_order_element(classical_preset("hermite"))
    ok = True
    for step in STEP_SET:
        realized = realize_lattice(hermite, step)
        ok = ok and realized == _hermite_display(step)
        mult_2x = ShiftOperator(step, {0: Polynomial((0, 2))})
        composed = forward_difference(step) ** 2 - mult_2x * backward_difference(step)
        ok = ok and realized == composed
    checks.append(CheckResult(
        "hermite preset matches its explicit four-point display and the "
        "difference-operator composition",
        ok, f"steps {{{_steps_str()}}}"))

    bad = 0
    for _ in range(n_trials):
        params = _draw_three_point(rng)
        if three_point_operator(params) != three_point_stencil(params):
            bad += 1
    checks.append(CheckResult(
        "realized three-point operator equals its three-bracket closed form",
        bad == 0, f"{n_trials} random draws, {bad} mismatches"))

    return SuiteResult("second-order", n_trials, tuple(checks))


# -- stencils: point counts of the three families ------------------------


def _draw_qes_form(rng, spin: int, generic=False) -> QesQuadraticForm:
    return QesQuadraticForm(spin, *(_rand_fraction(rng, nonzero=generic) for _ in range(10)))


def _suite_stencils(seed: int, trials: int | None) -> SuiteResult:
    rng = _rng(seed, "stencils")
    n_trials = trials or 20
    checks = []

    bad = 0
    for i in range(n_trials):
        params = _draw_second_order(rng, generic=True)
        step = STEP_SET[i % len(STEP_SET)]
        shifts, _ = stencil_extract(realize_lattice(second_order_element(params), step))
        if shifts != (-2, -1, 0, 1, 2):
            bad += 1
    checks.append(CheckResult(
        "generic second-order operators read exactly five points {-2..+2}",
        bad == 0, f"{n_trials} generic draws, {bad} off-count"))

    bad = 0
    for i in range(n_trials):
        spin = rng.randint(1, 6)
        step = STEP_SET[i % len(STEP_SET)]
        for _ in range(100):
            form = _draw_qes_form(rng, spin, generic=True)
            shifts, _ = stencil_extract(realize_lattice(qes_quadratic_element(form), step))
            if shifts == (-4, -3, -2, -1, 0, 1, 2):
                break
        else:
            bad += 1
    checks.append(CheckResult(
        "generic spin quadratic forms read exactly seven points {-4..+2}",
        bad == 0, f"{n_trials} generic draws, {bad} failed to realize the full stencil"))

    bad = 0
    for i in range(n_trials):
        params = _draw_three_point(rng, STEP_SET[i % len(STEP_SET)], nonzero=True)
        shifts, _ = stencil_extract(three_point_operator(params))
        if shifts != (-1, 0, 1):
            bad += 1
    checks.append(CheckResult(
        "the three-point family reads exactly three points {-1, 0, +1}",
        bad == 0, f"{n_trials} generic draws, {bad} off-count"))

    return SuiteResult("stencils", n_trials, tuple(checks))


# -- isospectral: spectra survive discretization ---------------------------


def _suite_isospectral(seed: int, trials: int | None) -> SuiteResult:
    rng = _rng(seed, "isospectral")
    n_trials = trials or 50
    good = 0
    for i in range(n_trials):
        params = _draw_second_order(rng)
        step = STEP_SET[i % len(STEP_SET)]
        degree = rng.randint(6, 12)
        cert = isospectral_check(second_order_element(params), step, degree)
        if cert.verdict:
            good += 1
    checks = (CheckResult(
        "continuum and lattice characteristic polynomials coincide",
        good == n_trials,
        f"{good}/{n_trials} certificates, degree bound <= 12, steps {{{_steps_str()}}}"),)
    return SuiteResult("isospectral", n_trials, checks)


# -- hermite: the fully worked discrete family -----------------------------


def _suite_hermite(seed: int, trials: int | None) -> SuiteResult:
    checks = []

    ok = all(
        realize_lattice(second_order_element(classical_preset("hermite")), step)
        == _hermite_display(step)
        for step in STEP_SET
    )
    checks.append(CheckResult(
        "hermite lattice stencil matches the explicit coefficients",
        ok, f"steps {{{_steps_str()}}}"))

    table = discrete_family("hermite", 1, 10)
    ok = all(entry.verified for entry in table.entries)
    checks.append(CheckResult(
        "transported eigenfunctions satisfy the lattice eigenvalue problem",
        ok, "step 1, degrees k <= 10, polynomial identities"))

    ok = all(
        entry.eigenvalue == -2 * entry.degree and abs(entry.eigenvalue) == 2 * entry.degree
        for entry in table.entries
    )
    checks.append(CheckResult(
        "computed eigenvalue at degree k is -2k (magnitude 2k)",
        ok, "sign reported as computed"))

    checks.append(CheckResult(
        "eigenvalue sign convention is flagged in the table notes",
        bool(table.notes), "; ".join(table.notes)))

    half = discrete_family("hermite", Fraction(1, 2), 6)
    ok = all(
        e1.quasi.coeffs == e2.quasi.coeffs
        for e1, e2 in zip(table.entries, half.entries)
    )
    checks.append(CheckResult(
        "quasi-basis coefficient vectors are step independent",
        ok, "steps 1 and 1/2, degrees k <= 6"))

    return SuiteResult("hermite", None, tuple(checks))


# -- presets: discrete families against the reference oracles ------------


def _reference_matches(pairs, spec: oracles.FamilySpec, k_top: int):
    """Walk eigenpairs beside the family's members 0..k_top, from one run
    and in the operator variable: each degree, its eigenvalue and whether
    its eigenvector matches the member projectively."""
    refs = (oracles._in_operator_variable(spec, p) for p in oracles._members(spec, k_top))
    for k, ((lam, vec), ref) in enumerate(zip(pairs, refs, strict=True)):
        yield k, lam, oracles.projective_equal(vec, ref)


def _preset_mismatches(name: str, k_top: int, **params) -> int:
    """Degrees k <= k_top at which the lattice eigenvalue of a discrete
    preset differs from its closed form or its eigenvector from the
    reference family."""
    spec = oracles.family(name, **params)
    preset = DISCRETE_PRESETS[name](**dict(spec.params))
    matrix = lattice_matrix(three_point_operator(preset), k_top, basis=MONOMIAL)
    walk = _reference_matches(eigenpairs_triangular(matrix), spec, k_top)
    return sum(lam != three_point_diagonal(preset, k) or not same for k, lam, same in walk)


def _suite_presets(seed: int, trials: int | None) -> SuiteResult:
    checks = []

    bad = sum(_preset_mismatches("hahn", min(8, size - 1), alpha=alpha, beta=beta, size=size)
              for alpha in (0, 1, 2) for beta in (0, 1, 2) for size in (4, 5, 6))
    checks.append(CheckResult(
        "hahn preset eigenvectors match the reference family",
        not bad,
        f"alpha,beta in {{0,1,2}}, size in {{4,5,6}}, k <= min(8, size-1); "
        f"{bad} mismatches"))

    bad = sum(_preset_mismatches("meixner", 8, gamma=gamma, mu=mu)
              for gamma, mu in ((1, Fraction(1, 2)), (1, 2)))
    checks.append(CheckResult(
        "meixner preset eigenvectors match the reference family",
        not bad, f"gamma=1, mu in {{1/2, 2}}, k <= 8; {bad} mismatches"))

    bad = sum(_preset_mismatches("charlier", 8, mu=mu) for mu in (1, 3))
    checks.append(CheckResult(
        "charlier preset eigenvectors match the reference family",
        not bad, f"mu in {{1, 3}}, k <= 8; {bad} mismatches"))

    bad = []
    for name, params in (
        ("laguerre", {"alpha": 0}),
        ("laguerre", {"alpha": Fraction(1, 2)}),
        ("legendre", {}),
        ("jacobi", {"alpha": 1, "beta": Fraction(1, 3)}),
    ):
        spec = oracles.family(name, **params)
        preset = CLASSICAL_PRESETS[name](**dict(spec.params))
        pairs = eigenpairs_triangular(continuum_matrix(second_order_element(preset), 8))
        bad += [(name, k) for k, _, same in _reference_matches(pairs, spec, 8) if not same]
    checks.append(CheckResult(
        "classical continuum presets match their reference families",
        not bad, f"laguerre/legendre/jacobi, k <= 8; {len(bad)} mismatches"))

    return SuiteResult("presets", None, tuple(checks))


# -- qes: invariant subspaces and block spectra -----------------------------


def _blocks_agree(element: AlgebraElement, step: Fraction, spin: int) -> bool:
    """Both realizations of ``element`` (the lattice one at ``step``) close on
    degree <= spin, with equal block characteristic polynomials."""
    cont = invariant_subspace_check(element, spin)
    latt = invariant_subspace_check(realize_lattice(element, step), spin)
    return cont.closed and latt.closed and cont.block_char_poly == latt.block_char_poly


def _suite_qes(seed: int, trials: int | None) -> SuiteResult:
    rng = _rng(seed, "qes")
    n_trials = trials or 10
    total = 6 * n_trials
    checks = []

    bad = 0
    for spin in range(1, 7):
        for i in range(n_trials):
            element = qes_quadratic_element(_draw_qes_form(rng, spin))
            if not _blocks_agree(element, STEP_SET[(spin + i) % len(STEP_SET)], spin):
                bad += 1
    checks.append(CheckResult(
        "spin quadratic forms preserve degree <= spin with equal block spectra",
        bad == 0, f"spin 1..6 x {n_trials} draws, {bad} failures of {total}"))

    bad = 0
    for spin in range(1, 7):
        for i in range(n_trials):
            step = STEP_SET[(spin + i) % len(STEP_SET)]
            params = _draw_three_point(rng, step)
            a_plus = _rand_fraction(rng, nonzero=True)
            if not _blocks_agree(qes_three_point_element(a_plus, params, spin), step, spin):
                bad += 1
    checks.append(CheckResult(
        "extended three-point forms preserve degree <= spin with equal block spectra",
        bad == 0, f"spin 1..6 x {n_trials} draws, {bad} failures of {total}"))

    return SuiteResult("qes", n_trials, tuple(checks))


SUITES = {
    "heisenberg": _suite_heisenberg,
    "second-order": _suite_second_order,
    "stencils": _suite_stencils,
    "isospectral": _suite_isospectral,
    "hermite": _suite_hermite,
    "presets": _suite_presets,
    "qes": _suite_qes,
}

SUITE_NAMES = tuple(SUITES)


def run_suite(name: str, seed: int = DEFAULT_SEED, trials: int | None = None) -> SuiteResult:
    """Run one suite; ``seed`` is any plain integer, ``trials`` (an integer
    >= 1) overrides its draw counts, ``None`` keeps them."""
    if type(seed) is not int:
        raise ParameterError(f"seed must be an integer, got {seed!r}")
    if trials is not None:
        require_int(trials, "trials", 1, ParameterError)
    key = canonical_name(name)
    if key not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {list(SUITE_NAMES) + ['all']}")
    return SUITES[key](seed, trials)


def run(suite: str = "all", seed: int = DEFAULT_SEED, trials: int | None = None) -> dict:
    """Run one suite (or all of them) and return a deterministic summary;
    ``seed`` and ``trials`` as in :func:`run_suite`, which checks them."""
    names = list(SUITE_NAMES) if canonical_name(suite) == "all" else [suite]
    results = [run_suite(name, seed, trials) for name in names]
    return {
        "seed": seed,
        "suites": [r.to_json_obj() for r in results],
        "passed": sum(r.n_passed for r in results),
        "failed": sum(r.n_failed for r in results),
        "ok": all(r.ok for r in results),
    }
