#!/usr/bin/env python3
"""Planted-defect matrix: which verify checks move under each of a fixed list of defects.

Runs ``harness.run_all()`` once on the checkout's own ``src/``, then once per
defect of ``defects()``: it plants the defect, runs ``run_all()`` again, undoes the
defect and clears the evaluator's caches (``_ratio_i``, ``_k_ladder``), which
are also cleared before each run.  A defect is planted in every module that
binds the patched name, as the benchmark's tracer installs its wrappers, so
that ``harness``'s own imports of kernels by name see it too.  Prints JSON,
one key per defect in list order: the sorted check ids whose status differs
from the clean run (an empty list: no check caught it), or
``["raised <ExceptionType>"]`` where ``run_all()`` itself raised.  Usage,
from the root of a checkout (no options):

    python3 scripts/defect_matrix.py

The defects:

    K:<path>:value, K:<path>:claim   each row of _K_KERNELS and _K_CLOSED:
                                     K_mu and K_{mu+1} scaled by 1 + 1e-9, or
                                     both claims by 1/100
    K:orders:rounded                 the K ladder reads K_{nu-1} and K_{nu+1}
                                     at the rounded doubles nu -+ 1.0, each
                                     from its own split, not at the exact
                                     orders of nu's split
    I:<kernel>:value, I:<kernel>:claim   _i_series, _i_asym, _i_closed: the
                                     value scaled by 1 + 1e-9, or the claim by
                                     1/100; likewise ratio_I:cf for _ratio_i_cf
    quantity:<tag>+1e-10             the quantity's value shifted by 1e-10
                                     (phiI, phiK, phiP)
    quantity:<tag>*(1+1e-9)          the quantity's value scaled by 1 + 1e-9
                                     (phiP, y, z)
    derivative:<tag>'*(1+1e-5)       numeric_derivative's first derivative of
                                     the quantity scaled by 1 + 1e-5 (y, z)
    derivative:y'*(1+1e-5):nu<0      y' scaled by 1 + 1e-5 only at nu < 0
    derivative:y'*(1+3e-6):x>10      y' scaled by 1 + 3e-6 only at x > 10
    half_concavity+1e-10             both terms of the concavity checks'
                                     closed form at nu = 1/2 shifted by 1e-10,
                                     as returned (so not where they are
                                     scaled by e^(2x))
    tighten:<id>                     each proved entry's formula moved 1e-8
                                     relative toward the quantity (a lower
                                     bound raised, an upper one lowered),
                                     and by 1e-8 absolute where it is 0
    best_bounds:second_best          best_bounds returns, on each side with two
                                     or more applicable proved entries, the
                                     second tightest
    best_bounds:every_status         best_bounds also admits conjecture and
                                     refuted entries

Each run takes about as long as a cold ``verify --suite all``.
"""

import dataclasses
import json
import sys
from pathlib import Path
from types import MappingProxyType

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import besselbounds  # noqa: E402
from besselbounds import catalog, cli, core, harness  # noqa: E402

MODULES = (besselbounds, core, catalog, harness, cli)
SCALE = 1.0 + 1e-9


class Plant:
    """The patches of one defect, undone in reverse order."""

    def __init__(self):
        self._undo = []

    def rebind(self, home, name, new):
        """Bind ``new`` in place of ``home.name`` in every module that binds the same object."""
        old = getattr(home, name)
        for mod in MODULES:
            if vars(mod).get(name) is old:
                self._undo.append((setattr, mod, name, old))
                setattr(mod, name, new)

    def setitem(self, mapping, key, value):
        self._undo.append((mapping.__setitem__, key, mapping[key]))
        mapping[key] = value

    def undo(self):
        while self._undo:
            fn, *args = self._undo.pop()
            fn(*args)


def _clear_caches():
    core._ratio_i.cache_clear()
    core._k_ladder.cache_clear()


def _k_kernel(index, what):
    # index into _K_KERNELS, or None for _K_CLOSED
    def plant(p):
        row = core._K_CLOSED if index is None else core._K_KERNELS[index]
        kernel = row.kernel
        if what == "value":
            def planted(mu, x):
                k0, k1, r0, r1 = kernel(mu, x)
                return k0 * SCALE, k1 * SCALE, r0, r1
        else:
            def planted(mu, x):
                k0, k1, r0, r1 = kernel(mu, x)
                return k0, k1, r0 / 100.0, r1 / 100.0
        new = row._replace(kernel=planted)
        if index is None:
            p.rebind(core, "_K_CLOSED", new)
        else:
            rows = list(core._K_KERNELS)
            rows[index] = new
            p.rebind(core, "_K_KERNELS", tuple(rows))
    return plant


def _rounded_k_orders(p):
    # K_{nu-1}, K_nu, K_{nu+1} each at its own split of nu - 1.0, nu, nu + 1.0
    def planted(nu, x):
        (km, em), (k0, e0), (k1, e1) = (core._besselk(v, x) for v in (nu - 1.0, nu, nu + 1.0))
        return km, em, k0, e0, k1, e1
    p.rebind(core, "_k_orders", planted)


def _derivative(tag, scale, where=lambda ctx: True):
    # the first derivative of one quantity scaled where ``where(ctx)`` holds
    def plant(p):
        kind = core.QuantityKind(tag)
        derivative = core.numeric_derivative

        def planted(k, ctx, order=1):
            d = derivative(k, ctx, order)
            return d * scale if k is kind and order == 1 and where(ctx) else d
        p.rebind(core, "numeric_derivative", planted)
    return plant


def _shifted_half_concavity(p):
    half = harness._half_concavity

    def planted(x):
        (g, eg), (w, ew) = half(x)
        return (g + 1e-10, eg), (w + 1e-10, ew)
    p.rebind(harness, "_half_concavity", planted)


def _pair_kernel(name, what):
    # a kernel returning (value, claim)
    def plant(p):
        kernel = getattr(core, name)

        def planted(nu, x):
            v, e = kernel(nu, x)
            return (v * SCALE, e) if what == "value" else (v, e / 100.0)
        p.rebind(core, name, planted)
    return plant


def _quantity(tag, shift):
    def plant(p):
        kind = core.QuantityKind(tag)
        spec = core.QUANTITIES[kind]

        def evaluate(ctx):
            v = spec.evaluate(ctx)
            return core.ValueWithError(shift(v.value), v.rel_error_bound)
        p.setitem(core.QUANTITIES, kind, dataclasses.replace(spec, evaluate=evaluate))
    return plant


def _tighten(bound_id):
    def plant(p):
        b = catalog.CATALOG[bound_id]
        step = 1e-8 if b.side == "lower" else -1e-8

        def formula(nu, x):
            v = b.formula(nu, x)
            return v + step * (abs(v) or 1.0)  # an absolute step where the bound is 0
        new = dataclasses.replace(b, formula=formula)
        p.rebind(catalog, "CATALOG", MappingProxyType({**catalog.CATALOG, bound_id: new}))
        view = catalog._BY_QUANTITY[b.quantity]
        p.setitem(catalog._BY_QUANTITY, b.quantity,
                  catalog._view(tuple(new if e is b else e for e in view.entries)))
    return plant


def _best_bounds(statuses, rank):
    # the entry of the given rank on each side among those applicable with the
    # given statuses (the last one where fewer apply), ties by id
    def plant(p):
        def planted(quantity, nu, x):
            evs = catalog.applicable(quantity, nu, x, statuses)
            lows = sorted((e for e in evs if e.side == "lower"), key=lambda e: (-e.value, e.id))
            ups = sorted((e for e in evs if e.side == "upper"), key=lambda e: (e.value, e.id))
            return tuple(side[min(rank, len(side) - 1)] if side else None for side in (lows, ups))
        p.rebind(catalog, "best_bounds", planted)
    return plant


def defects():
    """(name, plant) of each defect, in report order."""
    out = []
    for index, row in [*enumerate(core._K_KERNELS), (None, core._K_CLOSED)]:
        for what in ("value", "claim"):
            out.append((f"K:{row.path}:{what}", _k_kernel(index, what)))
    out.append(("K:orders:rounded", _rounded_k_orders))
    for label, name in (("I:series", "_i_series"), ("I:asymptotic", "_i_asym"),
                        ("I:closed", "_i_closed"), ("ratio_I:cf", "_ratio_i_cf")):
        for what in ("value", "claim"):
            out.append((f"{label}:{what}", _pair_kernel(name, what)))
    for tag in ("phiI", "phiK", "phiP"):
        out.append((f"quantity:{tag}+1e-10", _quantity(tag, lambda v: v + 1e-10)))
    for tag in ("phiP", "y", "z"):
        out.append((f"quantity:{tag}*(1+1e-9)", _quantity(tag, lambda v: v * SCALE)))
    for tag in ("y", "z"):
        out.append((f"derivative:{tag}'*(1+1e-5)", _derivative(tag, 1.0 + 1e-5)))
    out.append(("derivative:y'*(1+1e-5):nu<0", _derivative("y", 1.0 + 1e-5, lambda ctx: ctx.nu < 0.0)))
    out.append(("derivative:y'*(1+3e-6):x>10", _derivative("y", 1.0 + 3e-6, lambda ctx: ctx.x > 10.0)))
    out.append(("half_concavity+1e-10", _shifted_half_concavity))
    for bound_id in catalog.ids(status="proved"):
        out.append((f"tighten:{bound_id}", _tighten(bound_id)))
    out.append(("best_bounds:second_best", _best_bounds(("proved",), 1)))
    out.append(("best_bounds:every_status", _best_bounds(("proved", "conjecture", "refuted"), 0)))
    return out


def _statuses():
    _clear_caches()
    return {c.check_id: c.status for c in harness.run_all().checks}


def main() -> int:
    clean = _statuses()
    matrix = {}
    for name, plant in defects():
        p = Plant()
        try:
            plant(p)
            try:
                got = _statuses()
            except Exception as exc:  # a run that raises is a caught defect: verify exits 1
                matrix[name] = [f"raised {type(exc).__name__}"]
                continue
            matrix[name] = sorted(cid for cid in clean.keys() | got.keys() if clean.get(cid) != got.get(cid))
        finally:
            p.undo()
            _clear_caches()
    print(json.dumps(matrix, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
