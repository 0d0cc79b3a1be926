import math

import numpy as np
import pytest

from msdenoise import ShiftOperator, density_at, fit, shift_until_converged
from msdenoise.anomaly import AnomalyReport, anomaly_scores, top_k
from msdenoise.synthetic import default_anomaly_scenario


def test_matches_per_point_iteration_exactly():
    rng = np.random.default_rng(0)
    data = rng.normal(size=(40, 2))
    model = fit(data, 0.5)
    report = anomaly_scores(data, model, keep_traces=True)
    op = ShiftOperator(model)
    for i, start in enumerate(data):
        trace = shift_until_converged(op, start)
        assert report.scores[i] == trace.total_length
        assert report.converged[i] == trace.converged
        assert np.array_equal(report.traces[i].path, trace.path)


def test_stop_rule_matches_per_point_iteration_at_every_step_length():
    # a tol at, or just above, one of the point's step lengths stops it on
    # that step or the next: both loops must take the same one.  The norm of
    # a lone step vector (a BLAS dot) and of it as a row differ in the last
    # bit for some steps (step 6 here, near 0.025008), so the stop rule must
    # be the same code in both.
    rng = np.random.default_rng(0)
    data = rng.normal(size=(40, 2))
    model = fit(data, 0.5)
    op = ShiftOperator(model)
    for length in shift_until_converged(op, data[0], tol=1e-12).step_lengths[:8]:
        for tol in (length, np.nextafter(length, np.inf)):
            trace = shift_until_converged(op, data[0], tol=tol)
            report = anomaly_scores(data[:1], model, tol=tol, keep_traces=True)
            assert np.array_equal(report.traces[0].path, trace.path)
            assert report.scores[0] == trace.total_length
            assert report.converged[0] == trace.converged
            assert report.scores[0] == anomaly_scores(data, model, tol=tol).scores[0]
    trace = shift_until_converged(op, data[0], tol=0.025007535458079325)
    assert trace.iterations == 6
    assert trace.total_length == anomaly_scores(data, model, tol=0.025007535458079325).scores[0]


def test_point_at_mode_scores_near_zero():
    rng = np.random.default_rng(1)
    model = fit(rng.normal(size=(60, 2)), 0.6)
    mode = shift_until_converged(ShiftOperator(model), np.zeros(2), tol=1e-12).end
    report = anomaly_scores(mode[None, :], model)
    assert report.scores[0] < 1e-9


def test_single_datum_model_score_is_distance():
    model = fit(np.array([[2.0, 1.0]]), 0.7)
    report = anomaly_scores(np.array([[5.0, 5.0]]), model, tol=1e-9)
    assert report.scores[0] == 5.0  # one exact jump of length hypot(3, 4)
    assert report.converged[0]


def test_far_outlier_is_scored_first():
    """A point so far out that all its kernel weights underflow still moves."""
    rng = np.random.default_rng(8)
    inliers = rng.normal(size=(40, 2))
    pts = np.vstack([inliers, [[60.0, -45.0]]])  # 75 from the origin, h = 0.5
    report = anomaly_scores(pts, fit(inliers, 0.5))
    assert report.converged.all()
    assert report.ranking[0] == 40
    assert 70.0 < report.scores[40] < 80.0  # a jump to the nearest inliers, then a few steps in


def test_top_k_sort_oracle():
    report = AnomalyReport(np.array([3.0, 1.0, 2.0]), np.ones(3, dtype=bool))
    assert top_k(report, 2).tolist() == [0, 2]
    assert top_k(report, 0).tolist() == []
    assert top_k(report, 3).tolist() == [0, 2, 1]
    with pytest.raises(ValueError):
        top_k(report, 4)


def test_ties_ranked_by_lower_index():
    # the ranking comes from the scores alone: 1 and 2 tie, and 1 comes first
    report = AnomalyReport(np.array([1.0, 2.0, 2.0, 0.5]), np.ones(4, dtype=bool))
    assert report.ranking.tolist() == [1, 2, 0, 3]
    assert top_k(report, 2).tolist() == [1, 2]


def test_rigid_motion_invariance():
    rng = np.random.default_rng(2)
    data = rng.normal(size=(50, 2))
    th = 0.6
    rot = np.array([[math.cos(th), -math.sin(th)], [math.sin(th), math.cos(th)]])
    moved = data @ rot.T + np.array([10.0, -4.0])
    base = anomaly_scores(data, fit(data, 0.5))
    rotated = anomaly_scores(moved, fit(moved, 0.5))
    assert np.allclose(rotated.scores, base.scores, rtol=1e-10, atol=1e-12)
    assert np.array_equal(rotated.ranking, base.ranking)


def test_monotone_ascent_along_traces():
    rng = np.random.default_rng(3)
    data = rng.normal(size=(80, 2))
    model = fit(data, 0.4)
    report = anomaly_scores(data, model, keep_traces=True)
    for trace in report.traces:
        dens = density_at(model, trace.path)
        assert np.all(np.diff(dens) >= -1e-12)


def test_deterministic_and_default_model():
    scenario = default_anomaly_scenario(rng_seed=0)
    pts = scenario.cloud.points
    a = anomaly_scores(pts)
    b = anomaly_scores(pts)
    assert np.array_equal(a.scores, b.scores)
    assert np.array_equal(a.ranking, b.ranking)


def test_scenario_recovers_planted_outliers_seed0():
    scenario = default_anomaly_scenario(rng_seed=0)
    pts = scenario.cloud.points
    planted = set(np.flatnonzero(scenario.labels == scenario.labels.max()).tolist())
    report = anomaly_scores(pts)
    assert planted <= set(top_k(report, 10).tolist())


def test_nonconvergent_points_flagged_and_scored():
    rng = np.random.default_rng(4)
    data = rng.normal(size=(30, 1))
    model = fit(data, 0.3)
    report = anomaly_scores(data, model, max_iter=1)
    assert not report.converged.all()
    assert np.all(report.scores >= 0.0)


def test_report_validation():
    with pytest.raises(ValueError):
        AnomalyReport(np.array([-1.0, 2.0]), np.ones(2, dtype=bool))
    with pytest.raises(ValueError):
        AnomalyReport(np.array([1.0, 2.0]), np.ones(3, dtype=bool))


def test_dimension_mismatch_and_bad_args():
    rng = np.random.default_rng(6)
    model = fit(rng.normal(size=(20, 2)), 0.5)
    with pytest.raises(ValueError):
        anomaly_scores(rng.normal(size=(5, 3)), model)
    with pytest.raises(ValueError):
        anomaly_scores(rng.normal(size=(5, 2)), model, max_iter=0)
    for tol in (-1.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            anomaly_scores(rng.normal(size=(5, 2)), model, tol=tol)


def test_record_limit_fails_before_allocating():
    import tracemalloc

    from msdenoise.density import _WORD_BUDGET

    rng = np.random.default_rng(7)
    data = rng.normal(size=(100, 2))
    model = fit(data, 0.5)
    too_many = _WORD_BUDGET // 100 + 1
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=f"over the limit of {_WORD_BUDGET}"):
            anomaly_scores(data, model, max_iter=too_many)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    # the positions kept for traces count against the same limit: this
    # max_iter fits as step lengths alone, but not with two coordinates more
    max_iter = _WORD_BUDGET // 200
    assert anomaly_scores(data, model, max_iter=max_iter).converged.all()
    with pytest.raises(ValueError, match="positions"):
        anomaly_scores(data, model, max_iter=max_iter, keep_traces=True)
    # the default CLI scene with traces (test_cli) stays well inside the limit
    n, d = default_anomaly_scenario().cloud.points.shape
    assert 500 * n + 501 * n * d <= _WORD_BUDGET


def test_records_are_not_copied_whole():
    # the multiples stated at the check in anomaly_scores: the records of
    # every iteration, one step's own kernel blocks over all n points, and
    # the per-point chunks of records gathered after the last step
    import tracemalloc

    rng = np.random.default_rng(0)
    n, d, max_iter = 400, 2, 200
    data = rng.normal(size=(n, d))
    model = fit(data, 0.5)
    op = ShiftOperator(model)
    anomaly_scores(data[:5], model, max_iter=2, keep_traces=True)  # imports outside the trace
    tracemalloc.start()
    try:
        op.step(data)
        step_peak = tracemalloc.get_traced_memory()[1]
        for keep_traces, multiple in ((False, 1.2), (True, 1.8)):
            words = max_iter * n + ((max_iter + 1) * n * d if keep_traces else 0)
            tracemalloc.reset_peak()
            report = anomaly_scores(data, model, tol=1e-300, max_iter=max_iter,
                                    keep_traces=keep_traces)
            peak = tracemalloc.get_traced_memory()[1]
            assert not report.converged.any()
            assert peak <= multiple * 8 * words + (0 if keep_traces else step_peak)
            del report
    finally:
        tracemalloc.stop()
