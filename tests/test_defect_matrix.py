"""scripts/defect_matrix.py: the catalogue defects it plants."""

import importlib.util
from pathlib import Path

from besselbounds import catalog
from besselbounds.harness import default_grid

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
