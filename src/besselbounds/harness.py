"""Verification suites: validity sweeps, equality/limit/sharpness checks, probes.

Each suite produces ``CheckRecord`` rows; a ``VerificationReport`` bundles
them with summary counts and serialises to the JSON schema used by the
CLI.  Proved catalog entries must sweep clean (status ``fail`` otherwise),
and each ``sharp_at`` tag of one is checked once, by the rule of its kind
(``SHARP_RULES``); conjecture and refutation probes are informational and
never fail a run.

No check draws at random and every record list is deterministically
ordered, so reports are reproducible bit for bit apart from wall-clock
fields (``generated_at`` honours SOURCE_DATE_EPOCH,
``runtime_ms`` is timing noise by nature).
"""

from __future__ import annotations

import math
import os
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
from .core import _EPS, _MIN_NORMAL  # the rounding and range of the concavity checks' error bounds
from .core import _K_KERNELS, _i_asym, _i_series, _i_switch, _k_row, _ratio_i_cf  # dual-path measurement

__all__ = [
    "GridSpec",
    "Violation",
    "CheckRecord",
    "SharpnessReport",
    "VerificationReport",
    "VerifyConfig",
    "default_grid",
    "grid_from_config",
    "sweep_validity",
    "SHARP_RULES",
    "sharp_checks",
    "sharpness_decay",
    "equality_and_limit_checks",
    "gronwall_probe",
    "conjecture_probe",
    "refutation_probe",
    "consistency_checks",
    "OVERLAP_AGREEMENT_REL",
    "dual_path_checks",
    "CONCAVITY_NU",
    "CONCAVITY_X",
    "application_checks",
    "run_suite",
    "run_all",
    "source_date",
    "SUITE_NAMES",
]

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
    errors: tuple[float, ...]
    monotone_decreasing: bool
    terminal: float


@dataclass
class VerificationReport:
    suite: str
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
        return {"suite": self.suite, "generated_at": self.generated_at,
                "checks": [asdict(c) for c in self.checks], "summary": self.summary}


# the largest sweep grid: its points are built and checked before any suite
# runs, and 10^6 of them already take minutes to sweep
MAX_X_POINTS = 1_000_000


@dataclass(frozen=True)
class VerifyConfig:
    x_points: int = 200
    x_lo: float = 1e-3
    x_hi: float = 100.0
    scale: str = "log"

    def __post_init__(self):
        if not 2 <= self.x_points <= MAX_X_POINTS:
            raise ValueError(f"grid counts must be >= 2 and <= {MAX_X_POINTS}")
        if not (0.0 < self.x_lo < self.x_hi <= SUPPORTED_X[1]):
            raise ValueError(f"grid range must satisfy 0 < start < end <= {SUPPORTED_X[1]:g}")
        if self.scale not in ("log", "linear"):
            raise ValueError(f"scale must be 'log' or 'linear'; got {self.scale!r}")
        grid_from_config(self)  # GridSpec refuses points that rounding makes equal


def source_date() -> time.struct_time | None:
    """$SOURCE_DATE_EPOCH in UTC, None where unset or empty; a malformed value raises ValueError."""
    text = os.environ.get("SOURCE_DATE_EPOCH")
    try:
        if text and not (text.isascii() and text.isdigit()):
            raise ValueError(text)  # int() also takes signs, blanks, "_" and non-ASCII digits
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


def sweep_validity(ids: list[str], grid: GridSpec) -> list[Violation]:
    """Check each bound against the reference evaluator on its in-domain grid.

    Each quantity is evaluated, with its tolerance, once per point where one of
    its bounds applies, for all of them.  Returns all violations (points beyond
    tolerance), sorted by (bound_id, nu, x).  Evaluation failures are re-raised.
    """
    out: list[Violation] = []
    for q in dict.fromkeys(cat.get(bound_id).quantity for bound_id in ids):
        entries = [(b.id, b.domain, b.formula, b.side == "lower") for b in map(cat.get, ids) if b.quantity == q]
        for nu in grid.nu_values:
            for x in grid.x_values:
                tol = None
                for bound_id, domain, formula, lower in entries:
                    if not domain(nu, x):
                        continue
                    if tol is None:
                        tv = quantity(q, EvalContext(nu, x))
                        true, tol = tv.value, _tolerance(tv.value, tv.abs_error_bound)
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
    recorder's creation) to its own ``add``, so it covers the work in between
    and no time is counted twice.  Where checks share one pass, the first
    record added after it carries the whole pass and the others about 0.  A
    check is ``info`` (reported, never gated) or passes when ``ok``: by
    default when it has no witness and its worst deviation is within its
    tolerance.
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
            info: bool = False) -> None:
        """Record one check.  ``worst`` defaults to the largest witness margin
        (0 without one); the WITNESS_CAP witnesses of largest margin are kept,
        sorted by (bound_id, nu, x)."""
        seconds = self._lap()
        if worst is None:
            worst = max((w.margin for w in witnesses), default=0.0)
        if ok is None:
            ok = not witnesses and worst <= tolerance
        kept = sorted(witnesses, key=lambda w: -w.margin)[:WITNESS_CAP]
        kept.sort(key=lambda w: (w.bound_id, w.nu, w.x))
        self.records.append(CheckRecord(check_id, "info" if info else "pass" if ok else "fail",
                                        tolerance, worst, kept, round(seconds * 1e3, 3)))
        self._lap()


def validity_records(cfg: VerifyConfig) -> list[CheckRecord]:
    grid = grid_from_config(cfg)
    checks = _Checks()
    for _, same_quantity in groupby(cat.ids(status="proved"), key=lambda bid: cat.get(bid).quantity):
        bound_ids = list(same_quantity)
        wits = sweep_validity(bound_ids, grid)
        for bound_id in bound_ids:  # the first record carries the quantity's whole pass
            checks.add(f"validity:{bound_id}", 1e-9, witnesses=[w for w in wits if w.bound_id == bound_id])
    return checks.records + refutation_probe()


# ---------------------------------------------------------------------------
# sharpness: one check per sharp_at tag of a proved entry
# ---------------------------------------------------------------------------

SHARPNESS_X = (10.0, 20.0, 50.0, 100.0)
SHARPNESS_TERMINAL = 0.02
# each kind of sharp_at tag: its check id, x values and tolerance.  x->inf: the error falls strictly over
# the x values to below the tolerance; x->0: the relative error is below it; nu=1/2: the largest is within it
SHARP_RULES = {
    "x->inf": ("sharpness:{}:nu={:g}", SHARPNESS_X, SHARPNESS_TERMINAL),
    "x->0": ("sharpness_x0:{}:nu={:g}", (1e-4,), 1e-4),
    "nu=1/2": ("equality:{}_at_half", _log_grid(0.02, 20.0, 50), 1e-12),
}


def sharp_checks(kind: str) -> list[tuple[str, str, float, bool]]:
    """(check id, bound id, order, relative) of each sharp_at tag of one kind
    of the proved entries, in catalog order.  A tag is ``nu=1/2``,
    ``x->0 nu=<order>`` or ``x->inf rel|abs nu=<order>``; another raises ValueError."""
    out = []
    for bound_id in cat.ids(status="proved"):
        for tag in cat.get(bound_id).sharp_at:
            head, _, order = tag.rpartition(" ")
            if tag != "nu=1/2" and (head not in ("x->0", "x->inf rel", "x->inf abs") or order[:3] != "nu="):
                raise ValueError(f"{bound_id}: malformed sharp_at tag {tag!r}")
            if (head.split()[0] if head else tag) == kind:
                nu = 0.5 if kind == "nu=1/2" else float(order[3:])
                out.append((SHARP_RULES[kind][0].format(bound_id, nu), bound_id, nu, head != "x->inf abs"))
    return out


def sharpness_decay(bound_id: str, x_sequence: tuple[float, ...], nu: float, relative: bool = True) -> SharpnessReport:
    """Relative (or absolute) error of a bound along increasing x; flags strict decay."""
    spec = cat.get(bound_id)
    errs = []
    for x in x_sequence:
        if not spec.domain(nu, x):
            raise DomainError(f"{bound_id} not applicable at nu={nu}, x={x}")
        tv = quantity(spec.quantity, EvalContext(nu, x))
        err = abs(spec.formula(nu, x) - tv.value)
        errs.append(err / abs(tv.value) if relative else err)
    mono = all(b < a for a, b in zip(errs, errs[1:]))
    return SharpnessReport(bound_id, nu, tuple(x_sequence), tuple(errs), mono, errs[-1])


def sharpness_records() -> list[CheckRecord]:
    """One check per x->inf and x->0 sharp_at tag of a proved entry."""
    checks = _Checks()
    for kind in ("x->inf", "x->0"):
        _, xs, tol = SHARP_RULES[kind]
        for check_id, bound_id, nu, relative in sharp_checks(kind):
            rep = sharpness_decay(bound_id, xs, nu, relative)
            checks.add(check_id, tol, rep.terminal, ok=rep.monotone_decreasing and rep.terminal < tol)
    return checks.records


# ---------------------------------------------------------------------------
# equality cases, limits, Gronwall and conjecture probes
# ---------------------------------------------------------------------------

# the limits that quantities approach as x -> 0 or x -> inf, each checked at
# one x: (name, quantity, x, orders, the limit at order nu, tolerance,
# relative).  A check's deviation is the largest |v - limit| over its orders,
# divided by |limit| where relative; a row whose tolerance is inf is info
_LIMITS = (
    ("phiI_x0_is_1/(nu+1)", QuantityKind.PHI_I, 1e-4, (0.0, 0.5, 1.0, 2.0, 5.0),
     lambda nu: 1.0 / (nu + 1.0), 1e-6, False),
    ("y_x0_is_nu", QuantityKind.Y, 1e-5, (-0.75, -0.5, 0.0, 0.5, 1.0, 2.0, 5.0, 8.0),
     lambda nu: nu, 1e-9, False),
    # z -> -|nu| at rate O(x^min(2|nu|,2)): testable at 1e-9 only for |nu| >~ 1.2
    ("z_x0_is_-abs(nu)", QuantityKind.Z, 1e-5, (-2.0, 1.5, 2.0, 3.0, 5.0, 8.0),
     lambda nu: -abs(nu), 1e-9, False),
    ("z_x0_small_nu_slow_rate", QuantityKind.Z, 1e-5, (0.1, 0.25, 0.5, 1.0),
     lambda nu: -abs(nu), math.inf, False),
    ("phiK_x0_is_1/(1-nu)", QuantityKind.PHI_K, 1e-4, (2.0, 3.0), lambda nu: 1.0 / (1.0 - nu), 1e-4, True),
    ("phiK_x0_nu1.5_rate_x", QuantityKind.PHI_K, 1e-4, (1.5,), lambda nu: -2.0, math.inf, True),
    ("lambda_x0_is_-1", QuantityKind.LAMBDA, 1e-4, (1.0,), lambda nu: -1.0, 1e-6, False),
    ("lambda_xinf_is_-1/2", QuantityKind.LAMBDA, 200.0, (1.0,), lambda nu: -0.5, 1e-2, False),
    ("w_xinf_is_1/2", QuantityKind.W, 450.0, (0.75, 1.0, 2.0), lambda nu: 0.5, 1e-2, False),
    ("q_xinf_is_-1/2", QuantityKind.Q, 200.0, (1.0, 2.0), lambda nu: -0.5, 1e-2, False),
)

# the open ranges that quantities map (0, inf) into: (name, quantity, orders,
# x grid, lower end, upper end).  The ends are approached as limits, so
# excursions below evaluation noise, max(1e-12, claim), count as inside
_RANGES = (
    ("lambda_in_(-1,-1/2)", QuantityKind.LAMBDA, (-0.5, 0.0, 1.0, 2.0, 5.0), _log_grid(1e-3, 100.0, 40),
     -1.0, -0.5),
    ("t_in_(-1/2,0)", QuantityKind.T, (0.0, 0.5, 1.0, 2.0, 5.0), _log_grid(0.05, 100.0, 30), -0.5, 0.0),
)


def equality_and_limit_checks() -> list[CheckRecord]:
    """Closed-form equality cases at nu = 1/2 and the x->0 / x->inf limits."""
    _, xs, tol = SHARP_RULES["nu=1/2"]
    checks = _Checks()

    # I and K route order 1/2 to their closed forms: each is checked against the
    # kernel that would take the order without them, I's by I's switch, K's the row x selects
    for name, fn, general in (
            ("I_half_is_sqrt(2/(pi*x))*sinh(x)", eval_I,
             lambda x: (_i_asym if x >= _i_switch(0.5) else _i_series)(0.5, x)[0]),
            ("K_half_is_sqrt(pi/(2*x))*exp(-x)", eval_K, lambda x: _k_row(x).kernel(0.5, x)[0])):
        devs = [abs(fn(EvalContext(0.5, x)).value - general(x)) / general(x) for x in (0.3, 1.0, 2.5, 7.0, 20.0)]
        checks.add(f"equality:{name}", 1e-12, max(devs))

    for check_id, bound_id, nu, _ in sharp_checks("nu=1/2"):
        checks.add(check_id, tol, max(sharpness_decay(bound_id, xs, nu).errors))

    for name, kind, x, nus, limit, tol, relative in _LIMITS:
        devs = [abs(quantity(kind, EvalContext(nu, x)).value - limit(nu)) / (abs(limit(nu)) if relative else 1.0)
                for nu in nus]
        checks.add(f"limit:{name}", tol, max(devs), info=tol == math.inf)

    worst = max(quantity(QuantityKind.PHI_K, EvalContext(nu, 1e-3)).value
                for nu in (0.25, 0.5, 0.75, 1.0))
    checks.add("limit:phiK_x0_divergence_nu_in_(0,1]", -10.0, worst, ok=worst < -10.0)

    for name, kind, nus, xs, lo, hi in _RANGES:
        devs = []
        for nu in nus:
            for x in xs:
                v = quantity(kind, EvalContext(nu, x))
                tol = max(1e-12, v.abs_error_bound)
                devs.append(max(lo - v.value - tol, v.value - hi - tol))
        checks.add(f"range:{name}", 0.0, max(devs))
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


def refutation_probe() -> list[CheckRecord]:
    """Collect witnesses against the refuted claims, and against P's concavity
    below its hypothesis nu >= 1/2; informational status."""
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

    # phiI + phiK < 0 (P strictly geometrically concave) is proved for nu >= 1/2,
    # and the hypothesis is sharp: below it the term is positive beyond its claim.
    # nu = 0.51 is evaluated as a control that is no witness.  The id is not a
    # refutation:, since no claimed statement fails: only the hypothesis is dropped
    wits = []
    for nu, x in ((0.3, 5.0), (0.3, 10.0), (0.49, 10.0), (0.51, 10.0)):
        g, eg = _p_concavity(EvalContext(nu, x))
        if g - eg > 0.0:
            wits.append(Violation("phiI+phiK<0 (proved nu>=1/2)", nu, x, 0.0, g, g - eg))
    checks.add("hypothesis:P_concavity_nu_below_half", 0.0, witnesses=wits, info=True)
    return checks.records


# ---------------------------------------------------------------------------
# consistency identities
# ---------------------------------------------------------------------------

CONSISTENCY_NU = (-0.75, -0.25, 0.0, 0.5, 1.0, 1.5, 2.0, 3.0, 5.0, 8.0)


OVERLAP_AGREEMENT_REL = 1e-11


def dual_path_checks() -> list[tuple[str, float]]:
    """Compare independent evaluation paths where their regions overlap.

    I: power series against the large-argument expansion just above the
    switch; K, for K_mu and K_{mu+1}, each pair of neighbouring rows of
    core._K_KERNELS at the upper row's route start e and at e + e/4 if that
    lies in the lower kernel's domain, else at e - e/4.  Returns (label,
    relative difference) pairs; any entry exceeding OVERLAP_AGREEMENT_REL
    indicates an evaluator bug.
    """
    out: list[tuple[str, float]] = []
    for nu in (0.0, 0.3, 1.0, 2.5, 4.0):
        x = _i_switch(nu) + 1.0
        vs, _ = _i_series(nu, x)
        va, _ = _i_asym(nu, x)
        out.append((f"I series/asymptotic nu={nu} x={x:g}", abs(vs - va) / abs(va)))
    for lower, upper in zip(_K_KERNELS, _K_KERNELS[1:]):
        e = upper.start
        xs = sorted((e, e + e / 4 if e + e / 4 <= lower.domain[1] else e - e / 4))
        for mu in (-0.4, -0.2, 0.0, 0.3, 0.5):
            for x in xs:
                a, b = lower.kernel(mu, x), upper.kernel(mu, x)
                for j in (0, 1):
                    out.append((f"K {lower.path}/{upper.path} order={mu + j:g} x={x:g}", abs(a[j] - b[j]) / b[j]))
    return out


def consistency_checks() -> list[CheckRecord]:
    """Structural identities linking the evaluator's independent pieces."""
    xs = _log_grid(0.05, 80.0, 20)
    checks = _Checks()

    # each (kind, nu, x) is evaluated once: the Riccati loops read the
    # Wronskian loop's y and z, and the identity loops the Riccati loops' v'
    values, derivs = {}, {}
    devs = []
    for nu in CONSISTENCY_NU:
        for x in xs:
            ctx = EvalContext(nu, x)
            y = values[QuantityKind.Y, nu, x] = quantity(QuantityKind.Y, ctx).value
            z = values[QuantityKind.Z, nu, x] = quantity(QuantityKind.Z, ctx).value
            p = quantity(QuantityKind.P, ctx).value
            devs.append(abs(y - z - 1.0 / p) * p)
    checks.add("consistency:wronskian", 1e-10, max(devs))

    # Riccati equation x v' = x^2 + nu^2 - v^2 for v = y and v = z, and
    # y' = x phiI, z' = x phiK; each side in its own timed loop
    for side, kind in (("I", QuantityKind.Y), ("K", QuantityKind.Z)):
        devs = []
        for nu in CONSISTENCY_NU:
            for x in xs:
                s = x * x + nu * nu
                v = values[kind, nu, x]
                vp = derivs[kind, nu, x] = numeric_derivative(kind, EvalContext(nu, x))
                devs.append(abs(x * vp - (s - v * v)) / s)
        checks.add(f"consistency:riccati_{side}", 1e-6, max(devs))

    for side, kind, phi, min_nu in (("I", QuantityKind.Y, QuantityKind.PHI_I, 0.0),
                                    ("K", QuantityKind.Z, QuantityKind.PHI_K, -math.inf)):
        devs = []
        for nu in CONSISTENCY_NU:
            if nu < min_nu:
                continue
            for x in xs:
                f = quantity(phi, EvalContext(nu, x)).value
                devs.append(abs(derivs[kind, nu, x] - x * f) / abs(x * f))
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

# orders and arguments of the pointwise concavity checks: the orders where the
# catalogue proves phiI + phiK <= 0, and a log grid reaching the box's edge
CONCAVITY_NU = (0.5, 1.0, 2.0, 5.0)
CONCAVITY_X = _log_grid(1e-3, SUPPORTED_X[1], 2000)


def _p_concavity(ctx: EvalContext) -> tuple[float, float]:
    """phiI + phiK at ctx's point, with an absolute error bound from the two claims.

    By the Riccati equations (DLMF 10.29), s = y + z = x P'/P has
    x s' = x^2 (phiI + phiK), so P = I K is strictly geometrically concave
    exactly where this is negative.  For nu >= 1/2 the catalogue proves it:
    turan16_upper (phiI < 1/sqrt(x^2 + mu)) and turan24_upper
    (phiK <= -1/sqrt(x^2 + mu)), mu = nu^2 - 1/4, sum to 0.  The concavity
    pass takes this route at every order but nu = 1/2, where it certifies the
    term by DLMF 10.39 algebra (_half_concavity), not by the evaluator.
    """
    fi, fk = quantity(QuantityKind.PHI_I, ctx), quantity(QuantityKind.PHI_K, ctx)
    g = fi.value + fk.value
    return g, fi.abs_error_bound + fk.abs_error_bound + _EPS * abs(g)


def _omega_concavity(ctx: EvalContext, g: float, eg: float) -> tuple[float, float]:
    """s (1 + s) + x^2 (phiI + phiK), s = y + z, at ctx's point, from P's term
    (g, eg) = _p_concavity(ctx), with an absolute error bound from the four
    claims: omega = x P has omega'' of its sign.  As for P's term, the
    concavity pass takes _half_concavity's closed form at nu = 1/2 instead."""
    x = ctx.x
    y, z = quantity(QuantityKind.Y, ctx), quantity(QuantityKind.Z, ctx)
    s = y.value + z.value
    es = y.abs_error_bound + z.abs_error_bound + _EPS * abs(s)
    a, b = s * (1.0 + s), x * x * g
    return a + b, (abs(1.0 + 2.0 * s) + es) * es + x * x * eg + 4.0 * _EPS * (abs(a) + abs(b))


def _half_concavity(x: float) -> tuple[tuple[float, float], tuple[float, float]]:
    """P's and omega's concavity terms at nu = 1/2 in closed form, each (value, absolute error bound).

    With e = e^(-2x), DLMF 10.39 gives phiI = (sinh x cosh x - x)/(x sinh^2 x),
    phiK = -1/x and s = y + z = x coth x - x - 1 = 2xe/(1 - e) - 1, so

        phiI + phiK = 2e (1 - e - 2x) / (x (1 - e)^2),
        s (1 + s) + x^2 (phiI + phiK) = -4 x^2 e / (1 - e),

    both negative at every x > 0 (1 - e < 2x).  1 - e is taken as
    d = -expm1(-2x).  Where e is below the normal range (x above about 354)
    both terms are returned times e^(2x), that is with e = 1: the factor is
    positive, so the sign the checks test is kept.

    The claims, in eps = 2u, for x >= 1e-6: 2x and the negation are exact;
    libm's exp and expm1 are taken within 1 ulp, eps each, as _k_closed takes
    exp (e is a normal double wherever it is not replaced by 1).  c = d - 2x
    rounds once and cancels: d's error eps d reaches it relative eps d/|c|,
    about eps/x at small x.  P's term then rounds four times more (2e is
    exact), with e's eps and d^2's 2 eps: eps (d/|c| + 5.5); omega's rounds
    three times (4x is exact), with e's and d's eps: 3.5 eps.
    The claims, (d/|c| + 6) eps (1 006 eps at x = 1e-3) and 4 eps, keep
    0.5 eps for the second-order terms, below 1e-8 eps while d/|c|, about 1/x,
    is below 1e6.  At e = 1 the claims only overcount.
    """
    t = 2.0 * x
    d = -math.expm1(-t)
    e = math.exp(-t)
    if e < _MIN_NORMAL:
        e = 1.0
    c = d - t
    g = 2.0 * e * c / (x * d * d)
    w = -4.0 * x * x * e / d
    return (g, (d / -c + 6.0) * _EPS * -g), (w, 4.0 * _EPS * -w)


def _catalog_witnesses(kind: QuantityKind, bound_ids: tuple[str, ...], nus: Sequence[float],
                       xs: Sequence[float], limit: bool = False) -> list[Violation]:
    """Witnesses against the catalogue entries ``bound_ids`` of ``kind`` on
    the grid nus x xs: the quantity is evaluated once per point, and each
    entry is tested, by its own formula b, where its own domain holds.

    A point fails where the quantity v, with its claim err, does not clear
    the bound: where its margin over the claim, err - (v - b) below v or
    v - (b - err) above it, is >= 0.  With ``limit``, for bounds reached only
    in the limit, a point fails only where v passes b by more than
    max(1e-12, err): where (b - v or v - b) - max(1e-12, err) is > 0.
    """
    entries = [cat.get(bound_id) for bound_id in bound_ids]
    wits = []
    for nu in nus:
        for x in xs:
            q = quantity(kind, EvalContext(nu, x))
            v, err = q.value, q.abs_error_bound
            for b in entries:
                if not b.domain(nu, x):
                    continue
                bv, lower = b.formula(nu, x), b.side == "lower"
                if limit:
                    margin = (bv - v if lower else v - bv) - max(1e-12, err)
                    failed = margin > 0.0
                else:
                    margin = err - (v - bv) if lower else v - (bv - err)
                    failed = margin >= 0.0
                if failed:
                    wits.append(Violation(b.id, nu, x, bv, v, margin))
    return wits


def application_checks() -> list[CheckRecord]:
    checks = _Checks()

    # the catalogue's application bounds, each on a grid of its own: the
    # stochastic mean molecule count exceeds the classical one (ncns); the
    # effective variance of the generalised inverse Gaussian distribution
    # lies in (0, 1/(mu - 1)) (nu plays mu, x plays 1/w); and the
    # hyperplane-bias bounds on b2hat, both asymptotically attained (b2hat ->
    # -1 at nu = 1/2), so that margins below evaluation noise count as holds
    wits = _catalog_witnesses(QuantityKind.N_S, ("ncns",), [-1.0 + 0.5 * k for k in range(13)],
                              [20.0 * (k + 1) / 40 for k in range(40)])
    checks.add("applications:ns_gt_nc", 0.0, witnesses=wits)
    wits = _catalog_witnesses(QuantityKind.V_EFF, ("veff_lower", "veff_upper"), (2.0, 5.0, 10.0),
                              _log_grid(0.1, 50.0, 40))
    checks.add("applications:veff_in_(0,1/(mu-1))", 0.0, witnesses=wits)
    wits = _catalog_witnesses(QuantityKind.B2HAT, ("b2hat_upper", "b2hat_upper_strong"),
                              (0.25, 0.5, 1.0, 2.0), _log_grid(0.05, 100.0, 40), limit=True)
    checks.add("applications:b2hat_bounds", 0.0, witnesses=wits)

    # concavity of P in log x and of omega = x P, at each point of a fixed
    # grid: a point fails when its value is positive beyond its error bound;
    # a point whose bound straddles 0 is counted as unresolved, an info
    # record, never as a pass.  At nu = 1/2 both terms fall like e^(-2x) and
    # are certified by DLMF 10.39 algebra (_half_concavity), not by the
    # evaluator, so no point there is unresolved; the other orders' points
    # evaluate phiI, phiK, y and z once for both checks.  The first record's
    # runtime_ms carries the whole pass and the other three about 0
    labels = ("phiI+phiK<0", "s(1+s)+x^2(phiI+phiK)<0")
    wits, unresolved = ([], []), [0, 0]
    for nu in CONCAVITY_NU:
        for x in CONCAVITY_X:
            if nu == 0.5:
                terms = _half_concavity(x)
            else:
                ctx = EvalContext(nu, x)
                g, eg = _p_concavity(ctx)
                terms = (g, eg), _omega_concavity(ctx, g, eg)
            for j, (v, err) in enumerate(terms):
                if v - err > 0.0:
                    wits[j].append(Violation(labels[j], nu, x, 0.0, v, v - err))
                elif v + err >= 0.0:
                    unresolved[j] += 1
    for name, w, n in zip(("P_geometric_concavity", "omega_concavity"), wits, unresolved):
        checks.add(f"applications:{name}_pointwise", 0.0, witnesses=w)
        checks.add(f"applications:{name}_pointwise_unresolved", 0.0, float(n), info=True)

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
# dominance claims
# ---------------------------------------------------------------------------

def enclosure_checks() -> list[CheckRecord]:
    """Dominance claims between named bounds, each on a fixed grid of its own:
    turan16_upper < turan11_upper, turan24_upper <= turan18_upper and
    turan22_lower >= paltsev_lower."""
    checks = _Checks()
    ok = True
    for nu in (0.75, 1.0, 2.0, 5.0):
        for x in _log_grid(1e-2, 100.0, 40):
            t16 = cat.evaluate_bound("turan16_upper", nu, x).value
            ok = ok and t16 < cat.evaluate_bound("turan11_upper", nu, x).value
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
    "validity": lambda cfg: validity_records(cfg) + enclosure_checks(),
    "sharpness": lambda cfg: sharpness_records(),
    "consistency": lambda cfg: consistency_checks() + equality_and_limit_checks() + gronwall_probe(),
    "applications": lambda cfg: application_checks(),
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
    return VerificationReport(name, checks, time.strftime("%Y-%m-%dT%H:%M:%SZ", stamp or time.gmtime()))


def run_all(cfg: VerifyConfig | None = None) -> VerificationReport:
    """Every suite with default grids; deterministic for a fixed config."""
    return run_suite("all", cfg)
