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
