"""scripts/report_digest.py: what its --against comparison reports for the tags output."""

import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parent.parent / "scripts" / "report_digest.py"
_SPEC = importlib.util.spec_from_file_location("report_digest", _PATH)
report_digest = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(report_digest)


def test_tags_diff_counts_where_points_moved():
    old = (b"I K ratio_I\n"
           b"1.0 60.0 0x1.0p+0/0x1.0p-50 0x1.0p-3/0x1.0p-49 DomainError\n"
           b"1.0 1.0 0x1.0p+0/0x1.0p-50 0x1.0p-3/0x1.0p-49 0x1.0p-1/0x1.0p-49\n"
           b"-3.0 70.0 0x1.0p+0/0x1.0p-50 0x1.0p-3/0x1.0p-49 DomainError\n"
           b"2.0 nan DomainError DomainError DomainError\n"
           b"2.0 400.0 0x1.0p+0/0x1.0p-50 0x1.0p-3/0x1.0p-49 0x1.0p-1/0x1.0p-49\n")
    new = (b"I K ratio_I\n"
           b"1.0 60.0 0x1.0000000000001p+0/0x1.0p-50 0x1.0p-3/0x1.0p-49 DomainError\n"  # bits
           b"1.0 1.0 0x1.0p+0/0x1.0p-50 0x1.0p-3/0x1.0p-49 0x1.0p-1/0x1.0p-49\n"  # unchanged
           b"-3.0 70.0 0x1.0p+0/0x1.0p-50 AccuracyError DomainError\n"  # value -> refusal
           b"2.0 nan AccuracyError DomainError DomainError\n"  # another refusal type
           b"2.0 400.0 0x1.0p+0/0x1.0p-51 0x1.0p-3/0x1.0p-49 0x1.0000000000001p-1/0x1.0p-49\n")
    lines = report_digest.tags_diff(old, new)
    assert lines[:4] == [
        "tags: 4 of 5 points differ",
        "  per tag: I 3, K 1, ratio_I 1",
        "  points that changed outcome kind: 2",
        "  x of the moved points: nan .. 400.0",
    ]
    assert lines[4] == "  nu=1.0 x=60.0: I 0x1.0p+0/0x1.0p-50 -> 0x1.0000000000001p+0/0x1.0p-50"
    assert lines[5] == "  nu=-3.0 x=70.0: K 0x1.0p-3/0x1.0p-49 -> AccuracyError"
    assert len(lines) == 8


def test_tags_diff_of_identical_outputs_and_of_other_point_sets():
    out = b"I K\n1.0 2.0 0x1.0p+0/0x1.0p-50 0x1.0p-3/0x1.0p-49\n"
    assert report_digest.tags_diff(out, out) == ["tags: 0 of 1 points differ"]
    assert report_digest.tags_diff(out, out + out.splitlines(True)[1]) == [
        "tags: the tag list or the point set differs"]


def test_query_field_writes_winners_then_every_applicable_entry(monkeypatch):
    import math

    from besselbounds import catalog
    from besselbounds.catalog import evaluate_bound
    from besselbounds.core import QuantityKind as QK

    def hx(bound_id, nu, x):
        return f"{bound_id}:{evaluate_bound(bound_id, nu, x).value.hex()}"

    lo, hi = hx("turan26_lower", 1.0, 6.0), hx("turan26_upper", 1.0, 6.0)
    for kind in (QK.PHI_P, "phiP"):
        assert report_digest.query_field(kind, 1.0, 6.0) == f"{lo}/{hi}/{lo},{hi}"
    # every status, in declaration order; an absent side and no entry at all read "-"
    field = report_digest.query_field(QK.PHI_I, 1.0, 1.0)
    assert field.startswith(f"{hx('turan16_lower', 1.0, 1.0)}/{hx('turan8_upper', 1.0, 1.0)}/")
    assert report_digest._query_ids(field) == (
        "turan16_lower/turan8_upper/turan1_lower,turan1_upper,turan8_lower,turan8_upper,turan9_lower,"
        "turan9_upper,turan10_upper,turan11_upper,turan16_lower,turan16_upper,turanconj_lower,joshi_turan7")
    kr = hx("turan5p_upper", 1.0, 1.0)
    assert report_digest.query_field(QK.K_RATIO, 1.0, 1.0) == f"-/{kr}/{kr}"
    assert report_digest.query_field(QK.W, 1.0, 1.0) == "-/-/-"
    assert report_digest.query_field(QK.PHI_P, 0.0, 1.0) == "-/-/-"
    # edges stay in: NaN values are written as such (the first proved entry of
    # each side wins, as nothing displaces a NaN), an x that is not positive
    # and finite has no entry, and a query that raises is written by its type
    assert report_digest.query_field(QK.Z, math.nan, 1e-9).startswith("paltsev_lower:nan/turan4_upper:nan/")
    assert report_digest.query_field(QK.Y, 1.0, math.inf) == "-/-/-"
    assert report_digest.query_field(QK.Z, 1.0, math.nan) == "-/-/-"

    def refuse(*args, **kwargs):
        raise ValueError("planted")

    monkeypatch.setattr(catalog, "best_bounds", refuse)
    monkeypatch.setattr(catalog, "applicable", refuse)
    assert report_digest.query_field(QK.Y, 1.0, 1.0) == "ValueError/ValueError"


def test_queries_diff_counts_changed_ids_as_outcome_kind():
    old = (b"phiI phiK\n"
           b"1.0 1.0 a:0x1.0p-1/b:0x1.0p+0/a:0x1.0p-1,b:0x1.0p+0 -/-/-\n"
           b"2.0 1.0 a:0x1.0p-1/b:0x1.0p+0/a:0x1.0p-1,b:0x1.0p+0 c:-0x1.0p+0/-/c:-0x1.0p+0\n")
    new = (b"phiI phiK\n"
           b"1.0 1.0 a:0x1.0p-1/b:0x1.0p+0/a:0x1.0p-1,b:0x1.0p+0 -/-/-\n"
           b"2.0 1.0 a:0x1.0p-2/b:0x1.0p+0/a:0x1.0p-2,b:0x1.0p+0 d:-0x1.0p+0/-/d:-0x1.0p+0\n")
    lines = report_digest.tags_diff(old, new, "queries", report_digest._query_ids)
    assert lines[:4] == [
        "queries: 1 of 2 points differ",
        "  per tag: phiI 1, phiK 1",
        "  points that changed outcome kind: 1",
        "  x of the moved points: 1.0 .. 1.0",
    ]
    assert report_digest._query_ids("a:-0x1.0p+0/-/a:-0x1.0p+0,b:nan") == "a/-/a,b"
    assert report_digest._query_ids("ValueError/ZeroDivisionError") == "ValueError/ZeroDivisionError"
    assert report_digest.tags_diff(old, b"".join(new.splitlines(True)[:2]), "queries") == [
        "queries: the tag list or the point set differs"]


def test_tag_points_draw_x_inside_the_box():
    # the drawn points keep x in (0, 500]; x = 0 and the other points outside
    # the box come from the edges alone, once per edge order
    points = report_digest.tag_points()
    drawn, edges = points[:report_digest.TAG_POINTS], points[report_digest.TAG_POINTS:]
    assert all(0.0 < x <= 500.0 for _, x in drawn)
    assert sum(x == 5e-324 for _, x in drawn) > 100 and sum(x == 500.0 for _, x in drawn) > 100
    assert sum(x == 0.0 for _, x in edges) == len(report_digest._EDGE_NU)
    assert {x for _, x in edges} >= {0.0, -1.0, 500.5}
