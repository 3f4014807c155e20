"""Verification suites: validity sweeps, equality/limit/sharpness checks, probes.

Each suite produces ``CheckRecord`` rows; a ``VerificationReport`` bundles
them with summary counts and serialises to the JSON schema used by the
CLI.  Proved catalog entries must sweep clean (status ``fail`` otherwise);
conjecture and refutation probes are informational and never fail a run.

All randomised checks draw from a seeded generator and every record list
is deterministically ordered, so reports are reproducible bit for bit
apart from wall-clock fields (``generated_at`` honours SOURCE_DATE_EPOCH,
``runtime_ms`` is timing noise by nature).
"""

from __future__ import annotations

import math
import os
import random
import time
from collections.abc import Sequence
from dataclasses import asdict, dataclass, field
from itertools import groupby

from . import catalog as cat
from .core import (
    SUPPORTED_X,
    DomainError,
    EvalContext,
    QuantityKind,
    eval_I,
    eval_K,
    numeric_derivative,
    quantity,
)
from .core import _i_asym, _i_series, _i_switch, _k_cf2, _k_temme, _ratio_i_cf  # dual-path measurement

__all__ = [
    "DEFAULT_SEED",
    "GridSpec",
    "Violation",
    "CheckRecord",
    "SharpnessReport",
    "VerificationReport",
    "VerifyConfig",
    "default_grid",
    "grid_from_config",
    "sweep_validity",
    "sharpness_decay",
    "equality_and_limit_checks",
    "gronwall_probe",
    "conjecture_probe",
    "refutation_probe",
    "consistency_checks",
    "OVERLAP_AGREEMENT_REL",
    "dual_path_checks",
    "application_checks",
    "run_suite",
    "run_all",
    "source_date",
    "SUITE_NAMES",
]

DEFAULT_SEED = 20260810
GRONWALL_ROOT = 3.577847594  # stationary point of w at nu = 1/2, +-1e-6


@dataclass(frozen=True)
class GridSpec:
    """Evaluation grid; x values strictly increasing and positive."""

    nu_values: tuple[float, ...]
    x_values: tuple[float, ...]

    def __post_init__(self):
        if not self.nu_values or not self.x_values:
            raise ValueError("GridSpec needs nonempty nu and x grids")
        if any(x <= 0.0 for x in self.x_values):
            raise ValueError("GridSpec x values must be positive")
        if any(b <= a for a, b in zip(self.x_values, self.x_values[1:])):
            raise ValueError("GridSpec x values must be strictly increasing")


@dataclass(frozen=True)
class Violation:
    """Witness of a bound exceeded beyond tolerance; margin is the excess (>= 0)."""

    bound_id: str
    nu: float
    x: float
    bound_value: float
    true_value: float
    margin: float


@dataclass
class CheckRecord:
    check_id: str
    status: str  # "pass" | "fail" | "info"
    tolerance: float
    max_violation: float
    witnesses: list[Violation] = field(default_factory=list)
    runtime_ms: float = 0.0


@dataclass(frozen=True)
class SharpnessReport:
    bound_id: str
    nu: float
    x_values: tuple[float, ...]
    rel_errors: tuple[float, ...]
    monotone_decreasing: bool
    terminal: float


@dataclass
class VerificationReport:
    suite: str
    seed: int
    checks: list[CheckRecord]
    generated_at: str

    @property
    def summary(self) -> dict[str, int]:
        s = {"pass": 0, "fail": 0, "info": 0}
        for c in self.checks:
            s[c.status] += 1
        return s

    @property
    def passed(self) -> bool:
        return self.summary["fail"] == 0

    def to_json_dict(self) -> dict:
        # a check's and a witness's keys are their dataclass fields, in order
        return {"suite": self.suite, "generated_at": self.generated_at, "seed": self.seed,
                "checks": [asdict(c) for c in self.checks], "summary": self.summary}


@dataclass(frozen=True)
class VerifyConfig:
    seed: int = DEFAULT_SEED
    random_pairs: int = 10_000
    x_points: int = 200
    x_lo: float = 1e-3
    x_hi: float = 100.0
    scale: str = "log"

    def __post_init__(self):
        if self.random_pairs < 1:
            raise ValueError("random_pairs must be >= 1: the concavity checks need a pair to draw")
        if self.x_points < 2:
            raise ValueError("grid counts must be >= 2")
        if not (0.0 < self.x_lo < self.x_hi <= SUPPORTED_X[1]):
            raise ValueError(f"grid range must satisfy 0 < start < end <= {SUPPORTED_X[1]:g}")
        if self.scale not in ("log", "linear"):
            raise ValueError(f"scale must be 'log' or 'linear'; got {self.scale!r}")
        grid_from_config(self)  # GridSpec refuses points that rounding makes equal


def source_date() -> time.struct_time | None:
    """$SOURCE_DATE_EPOCH in UTC, None where unset or empty; a malformed value raises ValueError."""
    text = os.environ.get("SOURCE_DATE_EPOCH")
    try:
        return time.gmtime(int(text)) if text else None
    except (ValueError, OverflowError, OSError):
        raise ValueError(f"SOURCE_DATE_EPOCH must be whole seconds since 1970-01-01; got {text!r}") from None


def _log_grid(lo: float, hi: float, n: int) -> tuple[float, ...]:
    a, b = math.log10(lo), math.log10(hi)
    return tuple(10.0 ** (a + (b - a) * (k + 1) / n) for k in range(n))


DEFAULT_NU_GRID = (-0.75, -0.5, -0.25, 0.0, 0.25, 0.5, 1.0, 1.5, 2.0, 3.0, 5.0, 8.0)


def default_grid(x_points: int = 200) -> GridSpec:
    """Default sweep grid: 12 orders x log-spaced points in (1e-3, 100]."""
    return grid_from_config(VerifyConfig(x_points=x_points))


def grid_from_config(cfg: VerifyConfig) -> GridSpec:
    """Sweep grid over the configured x range (log or linear spacing), ending at x_hi itself."""
    if cfg.scale == "linear":
        step = (cfg.x_hi - cfg.x_lo) / (cfg.x_points - 1)
        xs = tuple(cfg.x_lo + step * k for k in range(cfg.x_points - 1))
    else:
        xs = _log_grid(cfg.x_lo, cfg.x_hi, cfg.x_points)[:-1]
    return GridSpec(DEFAULT_NU_GRID, xs + (float(cfg.x_hi),))


# ---------------------------------------------------------------------------
# validity sweeps
# ---------------------------------------------------------------------------

def _tolerance(true: float, abs_eval_err: float) -> float:
    return max(1e-9, 1e-9 * abs(true)) + abs_eval_err


def sweep_validity(ids: list[str], grid: GridSpec, cache: dict | None = None) -> list[Violation]:
    """Check each bound against the reference evaluator on its in-domain grid.

    Returns all violations (points beyond tolerance), sorted by
    (bound_id, nu, x).  Evaluation failures are re-raised, not swallowed.
    ``cache`` maps (quantity, nu, x) to the reference (value, tolerance); share one to evaluate each once.
    """
    out: list[Violation] = []
    cache = {} if cache is None else cache
    for bound_id in ids:
        spec = cat.get(bound_id)
        q, domain, formula, lower = spec.quantity, spec.domain, spec.formula, spec.side == "lower"
        for nu in grid.nu_values:
            for x in grid.x_values:
                if not domain(nu, x):
                    continue
                ref = cache.get((q, nu, x))
                if ref is None:
                    tv = quantity(q, EvalContext(nu, x))
                    ref = cache[q, nu, x] = (tv.value, _tolerance(tv.value, tv.abs_error_bound))
                true, tol = ref
                bv = formula(nu, x)
                margin = (bv - true - tol) if lower else (true - bv - tol)
                if margin > 0.0:
                    out.append(Violation(bound_id, nu, x, bv, true, margin))
    out.sort(key=lambda v: (v.bound_id, v.nu, v.x))
    return out


WITNESS_CAP = 10  # witnesses a check keeps: those of largest margin


class _Checks:
    """The check records of one group function, timed back to back.

    A record's ``runtime_ms`` runs from the end of the previous record (or the
    recorder's creation) to its own ``add``, so it covers its own check's work
    and no time is counted twice.  A check is ``info`` (reported, never
    gated) or passes when ``ok``: by default when it has no witness and its
    worst deviation is within its tolerance.
    """

    def __init__(self):
        self.records: list[CheckRecord] = []
        self._t = 0.0
        self._lap()

    def _lap(self) -> float:
        t, self._t = self._t, time.perf_counter()
        return self._t - t

    def add(self, check_id: str, tolerance: float, worst: float | None = None,
            witnesses: Sequence[Violation] = (), *, ok: bool | None = None,
            info: bool = False, carry_s: float = 0.0) -> None:
        """Record one check.  ``worst`` defaults to the largest witness margin
        (0 without one); the WITNESS_CAP witnesses of largest margin are kept,
        sorted by (bound_id, nu, x); ``carry_s`` seconds of this check's time
        belong to the next record."""
        seconds = self._lap() - carry_s
        if worst is None:
            worst = max((w.margin for w in witnesses), default=0.0)
        if ok is None:
            ok = not witnesses and worst <= tolerance
        kept = sorted(witnesses, key=lambda w: -w.margin)[:WITNESS_CAP]
        kept.sort(key=lambda w: (w.bound_id, w.nu, w.x))
        self.records.append(CheckRecord(check_id, "info" if info else "pass" if ok else "fail",
                                        tolerance, worst, kept, round(seconds * 1e3, 3)))
        self._lap()
        self._t -= carry_s


def validity_records(cfg: VerifyConfig) -> list[CheckRecord]:
    grid = grid_from_config(cfg)
    checks = _Checks()
    for _, same_quantity in groupby(cat.ids(status="proved"), key=lambda bid: cat.get(bid).quantity):
        cache: dict = {}  # this quantity's reference values, shared by its bounds
        for bound_id in same_quantity:
            checks.add(f"validity:{bound_id}", 1e-9, witnesses=sweep_validity([bound_id], grid, cache))
    return checks.records + refutation_probe(cfg)


# ---------------------------------------------------------------------------
# sharpness decay
# ---------------------------------------------------------------------------

def sharpness_decay(bound_id: str, x_sequence: tuple[float, ...], nu: float) -> SharpnessReport:
    """Relative error of a bound along increasing x; flags monotone decay."""
    spec = cat.get(bound_id)
    errs = []
    for x in x_sequence:
        if not spec.domain(nu, x):
            raise DomainError(f"{bound_id} not applicable at nu={nu}, x={x}")
        tv = quantity(spec.quantity, EvalContext(nu, x))
        errs.append(abs(spec.formula(nu, x) - tv.value) / abs(tv.value))
    mono = all(b < a for a, b in zip(errs, errs[1:]))
    return SharpnessReport(bound_id, nu, tuple(x_sequence), tuple(errs), mono, errs[-1])


SHARPNESS_X = (10.0, 20.0, 50.0, 100.0)
SHARPNESS_TERMINAL = 0.02
# (bound_id, nu) pairs whose relative error must fall below 2% by x = 100,
# monotonically over SHARPNESS_X
SHARPNESS_CASES = (
    ("turan8_lower", 1.0),
    ("turan9_lower", 0.0),
    ("turan11_upper", 1.0),
    ("turan16_upper", 1.0),
    ("turan19_upper", 1.0),
    ("turan20_lower", 2.0),
    ("turan20_upper", 2.0),
    ("turan24_upper", 2.0),
    ("turan26_upper", 1.0),
)


def sharpness_records(cfg: VerifyConfig) -> list[CheckRecord]:
    checks = _Checks()
    for bound_id, nu in SHARPNESS_CASES:
        rep = sharpness_decay(bound_id, SHARPNESS_X, nu)
        checks.add(f"sharpness:{bound_id}:nu={nu:g}", SHARPNESS_TERMINAL, rep.terminal,
                   ok=rep.monotone_decreasing and rep.terminal < SHARPNESS_TERMINAL)
    # turan26_lower is sharp only in the absolute sense: its relative error
    # tends to nu+1/2 (the bound behaves like -(nu-1/2)/x^2 against
    # phiP ~ +1/x^2), so it is reported, not gated
    rep = sharpness_decay("turan26_lower", SHARPNESS_X, 1.0)
    checks.add("sharpness:turan26_lower:nu=1:limit_rel_err_nu+1/2", math.inf, rep.terminal, info=True)
    # x->0 sharpness: bound value at x = 1e-4 reproduces the stated limit
    for bound_id, nu, limit in (
        ("turan8_upper", 1.0, 0.5),      # 1/(nu+1)
        ("turan16_lower", 1.0, 0.5),
        ("turan1_upper", 1.0, 0.5),
        ("turan18_lower", 2.0, -1.0),    # 1/(1-|nu|)
        ("turan2_lower", 2.0, -1.0),
    ):
        dev = abs(cat.evaluate_bound(bound_id, nu, 1e-4).value - limit)
        checks.add(f"sharpness_x0:{bound_id}:nu={nu:g}", 1e-4, dev, ok=dev < 1e-4)
    return checks.records


# ---------------------------------------------------------------------------
# equality cases, limits, Gronwall and conjecture probes
# ---------------------------------------------------------------------------

def equality_and_limit_checks() -> list[CheckRecord]:
    """Closed-form equality cases at nu = 1/2 and the x->0 / x->inf limits."""
    xs = _log_grid(0.02, 20.0, 50)
    checks = _Checks()

    devs = [abs(quantity(QuantityKind.PHI_K, EvalContext(0.5, x)).value + 1.0 / x) * x for x in xs]
    checks.add("equality:phiK_half_is_-1/x", 1e-12, max(devs))
    devs = [abs(quantity(QuantityKind.Z, EvalContext(0.5, x)).value + x + 0.5) / (x + 0.5) for x in xs]
    checks.add("equality:z_half_is_-x-1/2", 1e-12, max(devs))

    for name, fn, form in (
            ("I_half_is_sqrt(2/(pi*x))*sinh(x)", eval_I, lambda x: math.sqrt(2.0 / (math.pi * x)) * math.sinh(x)),
            ("K_half_is_sqrt(pi/(2*x))*exp(-x)", eval_K, lambda x: math.sqrt(0.5 * math.pi / x) * math.exp(-x))):
        devs = [abs(fn(EvalContext(0.5, x)).value - form(x)) / form(x) for x in (0.3, 1.0, 2.5, 7.0, 20.0)]
        checks.add(f"equality:{name}", 1e-12, max(devs))

    for bound_id, kind in (("turan22_lower", QuantityKind.Z),
                           ("turan23_lower", QuantityKind.PHI_K),
                           ("turan24_upper", QuantityKind.PHI_K)):
        devs = []
        for x in xs:
            bv = cat.evaluate_bound(bound_id, 0.5, x).value
            tv = quantity(kind, EvalContext(0.5, x)).value
            devs.append(abs(bv - tv) / abs(tv))
        checks.add(f"equality:{bound_id}_at_half", 1e-12, max(devs))

    devs = [abs(quantity(QuantityKind.PHI_I, EvalContext(nu, 1e-4)).value - 1.0 / (nu + 1.0))
            for nu in (0.0, 0.5, 1.0, 2.0, 5.0)]
    checks.add("limit:phiI_x0_is_1/(nu+1)", 1e-6, max(devs))

    devs = [abs(quantity(QuantityKind.Y, EvalContext(nu, 1e-5)).value - nu)
            for nu in (-0.75, -0.5, 0.0, 0.5, 1.0, 2.0, 5.0, 8.0)]
    checks.add("limit:y_x0_is_nu", 1e-9, max(devs))

    # z -> -|nu| at rate O(x^min(2|nu|,2)): testable at 1e-9 only for |nu| >~ 1.2
    devs = [abs(quantity(QuantityKind.Z, EvalContext(nu, 1e-5)).value + abs(nu))
            for nu in (-2.0, 1.5, 2.0, 3.0, 5.0, 8.0)]
    checks.add("limit:z_x0_is_-abs(nu)", 1e-9, max(devs))
    devs = [abs(quantity(QuantityKind.Z, EvalContext(nu, 1e-5)).value + abs(nu))
            for nu in (0.1, 0.25, 0.5, 1.0)]
    checks.add("limit:z_x0_small_nu_slow_rate", math.inf, max(devs), info=True)

    devs = [abs(quantity(QuantityKind.PHI_K, EvalContext(nu, 1e-4)).value - 1.0 / (1.0 - nu))
            / abs(1.0 / (1.0 - nu)) for nu in (2.0, 3.0)]
    checks.add("limit:phiK_x0_is_1/(1-nu)", 1e-4, max(devs))
    dev = abs(quantity(QuantityKind.PHI_K, EvalContext(1.5, 1e-4)).value + 2.0) / 2.0
    checks.add("limit:phiK_x0_nu1.5_rate_x", math.inf, dev, info=True)

    worst = max(quantity(QuantityKind.PHI_K, EvalContext(nu, 1e-3)).value
                for nu in (0.25, 0.5, 0.75, 1.0))
    checks.add("limit:phiK_x0_divergence_nu_in_(0,1]", -10.0, worst, ok=worst < -10.0)

    # lambda maps (0, inf) into (-1, -1/2); the endpoints are approached as
    # limits, so excursions below evaluation noise count as inside
    devs = []
    for nu in (-0.5, 0.0, 1.0, 2.0, 5.0):
        for x in _log_grid(1e-3, 100.0, 40):
            lam = quantity(QuantityKind.LAMBDA, EvalContext(nu, x))
            tol = max(1e-12, lam.abs_error_bound)
            devs.append(max(-1.0 - lam.value - tol, lam.value + 0.5 - tol))
    checks.add("range:lambda_in_(-1,-1/2)", 0.0, max(devs))
    dev = abs(quantity(QuantityKind.LAMBDA, EvalContext(1.0, 1e-4)).value + 1.0)
    checks.add("limit:lambda_x0_is_-1", 1e-6, dev)
    dev = abs(quantity(QuantityKind.LAMBDA, EvalContext(1.0, 200.0)).value + 0.5)
    checks.add("limit:lambda_xinf_is_-1/2", 1e-2, dev)

    devs = [abs(quantity(QuantityKind.W, EvalContext(nu, 450.0)).value - 0.5)
            for nu in (0.75, 1.0, 2.0)]
    checks.add("limit:w_xinf_is_1/2", 1e-2, max(devs))

    devs = [abs(quantity(QuantityKind.Q, EvalContext(nu, 200.0)).value + 0.5)
            for nu in (1.0, 2.0)]
    checks.add("limit:q_xinf_is_-1/2", 1e-2, max(devs))

    devs = []
    for nu in (0.0, 0.5, 1.0, 2.0, 5.0):
        for x in _log_grid(0.05, 100.0, 30):
            tv = quantity(QuantityKind.T, EvalContext(nu, x))
            tol = max(1e-12, tv.abs_error_bound)
            devs.append(max(-0.5 - tv.value - tol, tv.value - tol))
    checks.add("range:t_in_(-1/2,0)", 0.0, max(devs))
    return checks.records


def gronwall_probe() -> list[CheckRecord]:
    """Locate the stationary point of w at nu = 1/2 and confirm rise/fall.

    w(x) = sqrt(x^2+1/4) - y(x) at nu = 1/2 increases up to a unique
    maximum near 3.5778 and decreases beyond it, so the claim that w is
    increasing on all of (0, inf) fails; the root of w' is located by
    bisection on [1, 10].
    """
    checks = _Checks()

    def wprime(x: float) -> float:
        return numeric_derivative(QuantityKind.W, EvalContext(0.5, x))

    a, b = 1.0, 10.0
    fa, fb = wprime(a), wprime(b)
    if not (fa > 0.0 > fb):
        checks.add("gronwall:root_bracketed", 0.0, 1.0)
        return checks.records
    for _ in range(60):
        m = 0.5 * (a + b)
        if wprime(m) > 0.0:
            a = m
        else:
            b = m
    root = 0.5 * (a + b)
    checks.add("gronwall:wprime_root", 1e-6, abs(root - GRONWALL_ROOT))
    w = lambda x: quantity(QuantityKind.W, EvalContext(0.5, x)).value
    rises_falls = w(1.0) < w(root) and w(root) > w(10.0)
    checks.add("gronwall:w_rises_then_falls", 0.0, 0.0 if rises_falls else 1.0)
    return checks.records


def conjecture_probe(cfg: VerifyConfig) -> list[CheckRecord]:
    """Probe the unproved bounds; informational only, never fails a run."""
    checks = _Checks()
    # below x ~ 0.1 the true slope ~ x^3 drops under the finite-difference
    # resolution (one ulp of lambda ~ -1 over the step), so the probe grid
    # starts where the signal is resolvable
    min_slope = math.inf
    for nu in (0.0, 1.0, 2.0, 5.0):
        for x in _log_grid(0.1, 20.0, 100):
            min_slope = min(min_slope, numeric_derivative(QuantityKind.LAMBDA, EvalContext(nu, x)))
    checks.add("conjecture:lambda_slope_min", 0.0, min_slope, info=True)
    # the boundary order of the conjectured range is reported separately
    edge = min(numeric_derivative(QuantityKind.LAMBDA, EvalContext(-0.5, x))
               for x in _log_grid(0.1, 20.0, 100))
    checks.add("conjecture:lambda_slope_min_boundary_nu=-1/2", 0.0, edge, info=True)

    viols = sweep_validity(["turanconj_lower", "turanconj2_upper"], grid_from_config(cfg))
    checks.add("conjecture:turanconj_sweep", 1e-9, witnesses=viols, info=True)
    return checks.records


def refutation_probe(cfg: VerifyConfig) -> list[CheckRecord]:
    """Collect witnesses against the refuted claims; informational status."""
    checks = _Checks()
    grid = GridSpec((0.5, 1.0, 2.0, 3.0, 5.0, 8.0), _log_grid(0.05, 50.0, 120))
    checks.add("refutation:joshi_turan7", 1e-9, witnesses=sweep_validity(["joshi_turan7"], grid),
               info=True)

    # b2hat < -1 was claimed for every nu > 0; it fails on 0 < nu < 1/2
    wits = []
    for nu in (0.1, 0.25, 0.4):
        for x in _log_grid(0.5, 100.0, 60):
            b2 = quantity(QuantityKind.B2HAT, EvalContext(nu, x)).value
            if b2 > -1.0:
                wits.append(Violation("b2hat<-1 (claimed nu>0)", nu, x, -1.0, b2, b2 + 1.0))
    checks.add("refutation:hamsici_b2hat", 0.0, witnesses=wits, info=True)
    return checks.records


# ---------------------------------------------------------------------------
# consistency identities
# ---------------------------------------------------------------------------

CONSISTENCY_NU = (-0.75, -0.25, 0.0, 0.5, 1.0, 1.5, 2.0, 3.0, 5.0, 8.0)


OVERLAP_AGREEMENT_REL = 1e-11


def dual_path_checks() -> list[tuple[str, float]]:
    """Compare independent evaluation paths where their regions overlap.

    I: power series against the large-argument expansion just above the
    switch; K: Temme's series against CF2 for K_mu and K_{mu+1} on both
    sides of x = core._TEMME_X.  Returns (label, relative difference) pairs; any
    entry exceeding OVERLAP_AGREEMENT_REL indicates an evaluator bug.
    """
    out: list[tuple[str, float]] = []
    for nu in (0.0, 0.3, 1.0, 2.5, 4.0):
        x = _i_switch(nu) + 1.0
        vs, _ = _i_series(nu, x)
        va, _ = _i_asym(nu, x)
        out.append((f"I series/asymptotic nu={nu} x={x:g}", abs(vs - va) / abs(va)))
    for mu in (-0.4, -0.2, 0.0, 0.3, 0.5):
        for x in (1.5, 2.0, 2.5):
            t = _k_temme(mu, x)
            c = _k_cf2(mu, x)
            for j in (0, 1):
                out.append((f"K temme/cf2 order={mu + j:g} x={x:g}", abs(t[j] - c[j]) / c[j]))
    return out


def consistency_checks() -> list[CheckRecord]:
    """Structural identities linking the evaluator's independent pieces."""
    xs = _log_grid(0.05, 80.0, 20)
    checks = _Checks()

    devs = []
    for nu in CONSISTENCY_NU:
        for x in xs:
            ctx = EvalContext(nu, x)
            y = quantity(QuantityKind.Y, ctx).value
            z = quantity(QuantityKind.Z, ctx).value
            p = quantity(QuantityKind.P, ctx).value
            devs.append(abs(y - z - 1.0 / p) * p)
    checks.add("consistency:wronskian", 1e-10, max(devs))

    # Riccati equation x v' = x^2 + nu^2 - v^2 for v = y and v = z, and
    # y' = x phiI, z' = x phiK; each side in its own timed loop
    for side, kind in (("I", QuantityKind.Y), ("K", QuantityKind.Z)):
        devs = []
        for nu in CONSISTENCY_NU:
            for x in xs:
                ctx = EvalContext(nu, x)
                s = x * x + nu * nu
                v = quantity(kind, ctx).value
                devs.append(abs(x * numeric_derivative(kind, ctx) - (s - v * v)) / s)
        checks.add(f"consistency:riccati_{side}", 1e-6, max(devs))

    for side, kind, phi, min_nu in (("I", QuantityKind.Y, QuantityKind.PHI_I, 0.0),
                                    ("K", QuantityKind.Z, QuantityKind.PHI_K, -math.inf)):
        devs = []
        for nu in CONSISTENCY_NU:
            if nu < min_nu:
                continue
            for x in xs:
                ctx = EvalContext(nu, x)
                f = quantity(phi, ctx).value
                devs.append(abs(numeric_derivative(kind, ctx) - x * f) / abs(x * f))
        checks.add(f"consistency:delta{side}_identity", 1e-6, max(devs))

    # second derivative: x y'' = 2x - (2y+1) y', relative to the term scale
    devs = []
    for nu in CONSISTENCY_NU:
        for x in (3.0, 5.0, 11.0, 20.0, 47.0):
            ctx = EvalContext(nu, x)
            y = quantity(QuantityKind.Y, ctx).value
            yp = numeric_derivative(QuantityKind.Y, ctx)
            ypp = numeric_derivative(QuantityKind.Y, ctx, order=2)
            rhs = 2.0 * x - (2.0 * y + 1.0) * yp
            scale = max(2.0 * x, abs((2.0 * y + 1.0) * yp))
            devs.append(abs(x * ypp - rhs) / scale)
    checks.add("consistency:second_derivative", 1e-4, max(devs))

    devs = []
    for nu in CONSISTENCY_NU:
        for x in xs:
            num, _ = _i_series(nu + 1.0, x)
            den, _ = _i_series(nu, x)
            devs.append(abs(_ratio_i_cf(nu, x)[0] - num / den) / (num / den))
    checks.add("consistency:ratio_I_dual_path", 1e-10, max(devs))

    devs = []
    for nu in (0.3, 0.7, 1.2, 2.5, 9.5):
        for x in xs:
            kp = eval_K(EvalContext(nu, x)).value
            km = eval_K(EvalContext(-nu, x)).value
            devs.append(abs(kp - km) / abs(kp))
    checks.add("consistency:K_symmetry", 1e-12, max(devs))

    checks.add("consistency:path_overlap", OVERLAP_AGREEMENT_REL, max(d for _, d in dual_path_checks()))
    return checks.records


# ---------------------------------------------------------------------------
# application-level checks
# ---------------------------------------------------------------------------

def application_checks(cfg: VerifyConfig) -> list[CheckRecord]:
    rng = random.Random(cfg.seed)
    checks = _Checks()

    # stochastic mean molecule count exceeds the classical one
    wits = []
    nus = [(-1.0 + 0.5 * k) for k in range(13)]  # -1 .. 5 step 0.5
    for nu in nus:
        for x in [20.0 * (k + 1) / 40 for k in range(40)]:
            ns = quantity(QuantityKind.N_S, EvalContext(nu, x))
            nc = cat.evaluate_bound("ncns", nu, x).value
            if (margin := ns.abs_error_bound - (ns.value - nc)) >= 0.0:
                wits.append(Violation("ncns", nu, x, nc, ns.value, margin))
    checks.add("applications:ns_gt_nc", 0.0, witnesses=wits)

    # effective variance of the generalised inverse Gaussian distribution
    wits = []
    for mu_gig in (2.0, 5.0, 10.0):
        for inv_w in _log_grid(0.1, 50.0, 40):
            v = quantity(QuantityKind.V_EFF, EvalContext(mu_gig, inv_w))
            hi = 1.0 / (mu_gig - 1.0)
            err = v.abs_error_bound
            if not err < v.value:
                wits.append(Violation("veff_bounds", mu_gig, inv_w, 0.0, v.value, err - v.value))
            elif not v.value < hi - err:
                wits.append(Violation("veff_bounds", mu_gig, inv_w, hi, v.value, v.value - (hi - err)))
    checks.add("applications:veff_in_(0,1/(mu-1))", 0.0, witnesses=wits)

    # hyperplane-bias bounds (margins below evaluation noise count as holds:
    # both bounds are asymptotically attained, e.g. b2hat -> -1 at nu = 1/2)
    wits = []
    for nu in (0.25, 0.5, 1.0, 2.0):
        for x in _log_grid(0.05, 100.0, 40):
            b2 = quantity(QuantityKind.B2HAT, EvalContext(nu, x))
            tol = max(1e-12, b2.abs_error_bound)
            cap = -(x + nu) / (2.0 * x)
            if (margin := b2.value - cap - tol) > 0.0:
                wits.append(Violation("b2hat_upper", nu, x, cap, b2.value, margin))
            if nu >= 0.5 and (margin := b2.value + 1.0 - tol) > 0.0:
                wits.append(Violation("b2hat_upper_strong", nu, x, -1.0, b2.value, margin))
    checks.add("applications:b2hat_bounds", 0.0, witnesses=wits)

    # geometric-mean concavity of P and midpoint concavity of omega = x P:
    # a pair fails only when the concavity margin is negative beyond the
    # evaluation noise (both inequalities approach equality exponentially
    # fast for large arguments, where strictness is not resolvable in doubles)
    lo, hi = math.log(0.05), math.log(40.0)
    # (the shared draws and pa, pb, pg are charged to the geometric check,
    # the midpoint value and its comparison to the midpoint check)
    mid_s = 0.0
    geo_fail = mid_fail = 0
    P = QuantityKind.P  # an enum member lookup takes about 0.1 us: once, not four times a pair
    for nu in (0.5, 1.0, 2.0, 5.0):
        for _ in range(cfg.random_pairs):
            while True:
                a = math.exp(rng.uniform(lo, hi))
                b = math.exp(rng.uniform(lo, hi))
                if abs(math.log(a) - math.log(b)) > 1e-4:
                    break
            pa, pb = quantity(P, EvalContext(nu, a)), quantity(P, EvalContext(nu, b))
            pg = quantity(P, EvalContext(nu, math.sqrt(a * b)))
            tol = 3.0 * (pa.rel_error_bound + pb.rel_error_bound + pg.rel_error_bound)
            if math.log(pg.value) - 0.5 * (math.log(pa.value) + math.log(pb.value)) < -tol:
                geo_fail += 1
            t1 = time.perf_counter()
            m = 0.5 * (a + b)
            scale = m * quantity(P, EvalContext(nu, m)).value
            if scale - 0.5 * (a * pa.value + b * pb.value) < -tol * scale:
                mid_fail += 1
            mid_s += time.perf_counter() - t1
    checks.add("applications:P_geometric_concavity", 0.0, float(geo_fail), carry_s=mid_s)
    checks.add("applications:omega_midpoint_concavity", 0.0, float(mid_fail))

    # P strictly decreasing, with P < 1/(2 nu) < 1/2 for nu > 1
    ok = True
    for nu in (-0.5, 0.0, 1.0, 3.0):
        vals = [quantity(QuantityKind.P, EvalContext(nu, x)).value
                for x in _log_grid(1e-3, 100.0, 60)]
        ok = ok and all(b < a for a, b in zip(vals, vals[1:]))
    for nu in (1.5, 2.0, 5.0):
        for x in _log_grid(1e-3, 100.0, 60):
            p = quantity(QuantityKind.P, EvalContext(nu, x)).value
            ok = ok and p < 1.0 / (2.0 * nu) < 0.5
    checks.add("applications:P_decreasing_and_capped", 0.0, 0.0 if ok else 1.0)
    return checks.records


# ---------------------------------------------------------------------------
# best-bounds enclosure
# ---------------------------------------------------------------------------

def enclosure_checks(cfg: VerifyConfig) -> list[CheckRecord]:
    """best_bounds lower <= true <= upper wherever a proved side exists."""
    grid = default_grid(max(40, cfg.x_points // 5))
    checks = _Checks()
    for q in (QuantityKind.PHI_I, QuantityKind.PHI_K, QuantityKind.Y,
              QuantityKind.Z, QuantityKind.PHI_P):
        wits = []
        for nu in grid.nu_values:
            for x in grid.x_values:
                lo, hi = cat.best_bounds(q, nu, x)
                if lo is None and hi is None:
                    continue
                tv = quantity(q, EvalContext(nu, x))
                tol = _tolerance(tv.value, tv.abs_error_bound)
                if lo is not None and (margin := lo.value - tv.value - tol) > 0.0:
                    wits.append(Violation(lo.id, nu, x, lo.value, tv.value, margin))
                if hi is not None and (margin := tv.value - hi.value - tol) > 0.0:
                    wits.append(Violation(hi.id, nu, x, hi.value, tv.value, margin))
        checks.add(f"enclosure:{q.value}", 1e-9, witnesses=wits)
    # dominance claims between named bounds
    ok = True
    for nu in (0.75, 1.0, 2.0, 5.0):
        for x in _log_grid(1e-2, 100.0, 40):
            ok = ok and cat.evaluate_bound("turan16_upper", nu, x).value < 1.0 / x
    for nu in (1.5, 2.0, 3.0, 5.0):
        for x in _log_grid(1e-2, 100.0, 40):
            t24 = cat.evaluate_bound("turan24_upper", nu, x).value
            t18 = cat.evaluate_bound("turan18_upper", nu, x).value
            ok = ok and t24 <= t18
    for nu in (0.5, 1.0, 2.0, 5.0, -3.0):
        for x in _log_grid(1e-2, 100.0, 40):
            t22 = cat.evaluate_bound("turan22_lower", nu, x).value
            pal = cat.evaluate_bound("paltsev_lower", nu, x).value
            ok = ok and t22 >= pal
    checks.add("enclosure:dominance_claims", 0.0, 0.0 if ok else 1.0)
    return checks.records


# ---------------------------------------------------------------------------
# suite drivers
# ---------------------------------------------------------------------------

# the group functions of each suite, in report order.  Each runs through a
# lambda that looks its name up in this module when the suite runs, so a
# wrapper set on the module attribute (perfbench's tracer) sees the call
_SUITES = {
    "validity": lambda cfg: validity_records(cfg) + enclosure_checks(cfg),
    "sharpness": lambda cfg: sharpness_records(cfg),
    "consistency": lambda cfg: consistency_checks() + equality_and_limit_checks() + gronwall_probe(),
    "applications": lambda cfg: application_checks(cfg),
    "conjectures": lambda cfg: conjecture_probe(cfg),
}
SUITE_NAMES = ("all", *_SUITES)


def run_suite(name: str, cfg: VerifyConfig | None = None) -> VerificationReport:
    """Run one suite (or 'all') and return its report."""
    cfg = cfg or VerifyConfig()
    if name not in SUITE_NAMES:
        raise ValueError(f"unknown suite {name!r}; choose from {SUITE_NAMES}")
    stamp = source_date()  # a malformed value is refused before any check runs
    checks = [c for suite, run in _SUITES.items() if name in ("all", suite) for c in run(cfg)]
    checks.sort(key=lambda c: c.check_id)
    return VerificationReport(name, cfg.seed, checks, time.strftime("%Y-%m-%dT%H:%M:%SZ", stamp or time.gmtime()))


def run_all(cfg: VerifyConfig | None = None) -> VerificationReport:
    """Every suite with default grids; deterministic for a fixed config."""
    return run_suite("all", cfg)
