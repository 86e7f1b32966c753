"""CheckReport verdicts."""

import math

import pytest

from conformal2d.report import CheckReport


@pytest.mark.parametrize("errors", [[0.0, math.nan], [math.nan, 0.0], [1e-3, math.nan, 0.0]])
def test_nan_error_fails_closed_in_any_position(errors):
    rep = CheckReport.from_errors("nan-check", errors, 1.0)
    assert math.isnan(rep.max_error)
    assert rep.passed is False
    assert rep.points_tested == len(errors)


def test_max_error_and_verdict_without_nan():
    assert CheckReport.from_errors("ok", [0.5, 0.25], 0.5).passed is True
    rep = CheckReport.from_errors("over", [0.25, 0.75], 0.5)
    assert rep.max_error == 0.75 and rep.passed is False


def test_a_row_that_tests_no_point_is_refused():
    for points in (0, -1):
        with pytest.raises(ValueError, match=f"points_tested {points} < 1"):
            CheckReport("row", points, 0.0, 1.0)
    with pytest.raises(ValueError, match="points_tested 0 < 1"):
        CheckReport.from_errors("empty", [], 0.0)
