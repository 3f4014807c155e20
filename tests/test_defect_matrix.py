"""scripts/defect_matrix.py: the catalogue defects it plants."""

import importlib.util
from pathlib import Path

from besselbounds import catalog
from besselbounds.harness import default_grid, enclosure_checks

_PATH = Path(__file__).resolve().parent.parent / "scripts" / "defect_matrix.py"
_SPEC = importlib.util.spec_from_file_location("defect_matrix", _PATH)
defect_matrix = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(defect_matrix)


def test_tighten_moves_every_proved_formula():
    # each tighten:<id> row plants a real defect, the entries whose formula is
    # 0 among them: at the first point of the verify grid in the entry's
    # domain, the planted formula lies 1e-8 inside the catalogue's, relative
    # to it, or absolute where it is 0.  turan1_lower, turan2_upper and
    # veff_lower are 0 everywhere, turan16_lower at nu = -1/2
    grid = default_grid()
    unmoved, zero = [], []
    for bound_id in catalog.ids(status="proved"):
        b = catalog.get(bound_id)
        nu, x = next((nu, x) for nu in grid.nu_values for x in grid.x_values if b.domain(nu, x))
        p = defect_matrix.Plant()
        defect_matrix._tighten(bound_id)(p)
        try:
            planted = catalog.get(bound_id).formula(nu, x)
        finally:
            p.undo()
        assert catalog.get(bound_id) is b
        v = b.formula(nu, x)
        if v == 0.0:
            zero.append(bound_id)
        step = planted - v if b.side == "lower" else v - planted
        if not abs(step - 1e-8 * (abs(v) or 1.0)) <= 1e-6 * step:
            unmoved.append((bound_id, nu, x, v, planted))
    assert unmoved == []
    assert zero == ["turan1_lower", "turan16_lower", "turan2_upper", "veff_lower"]


def test_each_dominance_row_breaks_its_claim():
    # one dominance: row per claim of enclosure:dominance_claims, and each
    # fails the check: the strict claim's lesser bound read as the greater
    # one, the others' as one ulp above it
    rows = [(name, plant) for name, plant in defect_matrix.defects() if name.startswith("dominance:")]
    assert [name for name, _ in rows] == ["dominance:turan16_upper<turan11_upper",
                                          "dominance:turan24_upper<=turan18_upper",
                                          "dominance:paltsev_lower<=turan22_lower"]
    evaluate = catalog.evaluate_bound
    for name, plant in rows:
        p = defect_matrix.Plant()
        plant(p)
        try:
            assert [c.status for c in enclosure_checks()] == ["fail"], name
        finally:
            p.undo()
        assert catalog.evaluate_bound is evaluate
