"""Shift step, convergence trace, and denoising sweep tests."""

import math
import os
import subprocess
import sys
import threading

import numpy as np
import pytest

from msdenoise import density, shift
from msdenoise import (
    AnalyticDensity,
    ShiftOperator,
    ZeroDensityError,
    denoise,
    density_at,
    empirical_step_weighted_mean,
    fit,
    gradient_at,
    shift_step,
    shift_until_converged,
)
from msdenoise.density import PointCloud


def standard_normal_1d():
    def dens(q):
        return np.exp(-0.5 * q[:, 0] ** 2) / np.sqrt(2.0 * np.pi)

    def grad(q):
        return (-q[:, 0] * dens(q))[:, None]

    return AnalyticDensity(density=dens, gradient=grad, dim=1, modes=[[0.0]])


def naive_weighted_mean(data, h, x):
    """Pure-python double loop over the kernel-weighted mean of the data."""
    n, d = data.shape
    num = [0.0] * d
    den = 0.0
    for i in range(n):
        sq = 0.0
        for j in range(d):
            sq += (x[j] - data[i, j]) ** 2
        k = math.exp(-sq / (2.0 * h * h))
        den += k
        for j in range(d):
            num[j] += data[i, j] * k
    return np.array(num) / den


def test_fixed_point_at_analytic_mode():
    op = ShiftOperator(standard_normal_1d(), tau=0.3)
    out = shift_step(op, [0.0])
    assert out[0] == 0.0


def test_single_point_model_step_lands_exactly():
    a = np.array([2.5, -1.0])
    m = fit([a], 0.7)
    x = np.array([10.0, 3.0])
    assert np.allclose(empirical_step_weighted_mean(m, x), a, atol=0)
    assert np.allclose(shift_step(ShiftOperator(m), x), a, atol=1e-12)


def test_ratio_form_equals_weighted_mean_form():
    """The two step formulas agree to 1e-10 on random empirical states."""
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(3, 80))
        d = int(rng.integers(1, 4))
        data = rng.normal(scale=2.0, size=(n, d))
        h = float(rng.uniform(0.2, 1.5))
        m = fit(data, h)
        op = ShiftOperator(m)
        x = rng.normal(scale=2.0, size=(int(rng.integers(1, 6)), d))
        a = empirical_step_weighted_mean(m, x)
        b = shift_step(op, x)
        worst = max(worst, float(np.abs(a - b).max()))
    assert worst < 1e-10, f"forms disagree by {worst}"


@pytest.mark.parametrize("d", [2, 3])
def test_weighted_mean_matches_naive_double_loop(d):
    rng = np.random.default_rng(80 + d)
    data = rng.normal(loc=2.0, size=(120, d))
    m = fit(data, 0.6)
    for x in rng.normal(loc=2.0, scale=1.5, size=(40, d)):
        ref = naive_weighted_mean(data, 0.6, x)
        got = empirical_step_weighted_mean(m, x)
        assert np.linalg.norm(got - ref) <= 1e-12 * np.linalg.norm(ref)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_batch_step_matches_single_rows_across_block_boundaries(d, monkeypatch):
    """Blocks of 3 rows with a ragged tail: every row equals its own call."""
    rng = np.random.default_rng(60 + d)
    n = 40
    data = rng.normal(size=(n, d))
    m = fit(data, 0.7)
    op = ShiftOperator(m, tau=0.5)
    q = rng.normal(size=(3 * 5 + 2, d))
    monkeypatch.setattr(density, "_BLOCK_FLOATS", 3 * n)
    wm = empirical_step_weighted_mean(m, q)
    ratio = shift_step(op, q)
    assert np.array_equal(wm, np.vstack([empirical_step_weighted_mean(m, row) for row in q]))
    assert np.array_equal(ratio, np.vstack([shift_step(op, row) for row in q]))


def test_weighted_mean_symmetric_pair_midpoint():
    m = fit([[-1.0], [1.0]], 0.8)
    assert empirical_step_weighted_mean(m, [0.0])[0] == pytest.approx(0.0, abs=1e-15)
    # off-center query moves toward the nearer point but never past it
    out = empirical_step_weighted_mean(m, [0.2])[0]
    assert 0.2 < out < 1.0


def test_operator_uses_weighted_mean_only_at_native_scale():
    m = fit(np.random.default_rng(0).normal(size=(30, 1)), 0.5)
    assert ShiftOperator(m).uses_weighted_mean
    assert ShiftOperator(m, tau=0.5).uses_weighted_mean
    assert not ShiftOperator(m, tau=0.4).uses_weighted_mean


def test_generalized_step_matches_manual_formula():
    rng = np.random.default_rng(13)
    data = rng.normal(size=(25, 2))
    m = fit(data, 0.6)
    op = ShiftOperator(m, tau=0.9)
    x = rng.normal(size=2)
    from msdenoise import gradient_at

    expect = x + 0.81 * gradient_at(m, x) / density_at(m, x)
    assert np.allclose(shift_step(op, x), expect, rtol=1e-14)


def test_converges_to_mode_and_density_is_monotone():
    rng = np.random.default_rng(21)
    data = np.concatenate([rng.normal(-3.0, 0.4, 40), rng.normal(3.0, 0.4, 40)])
    m = fit(data, 0.5)
    tr = shift_until_converged(ShiftOperator(m), [-2.4])
    assert tr.converged
    assert abs(tr.end[0] - -3.0) < 0.5
    dens = density_at(m, tr.path)
    assert np.all(np.diff(dens) >= -1e-12)


def test_analytic_normal_contracts_to_origin():
    op = ShiftOperator(standard_normal_1d(), tau=0.3)
    tr = shift_until_converged(op, [0.5], tol=1e-10)
    assert tr.converged
    assert abs(tr.end[0]) < 1e-9
    # each step multiplies the coordinate by exactly (1 - tau^2)
    ratios = tr.path[1:-1, 0] / tr.path[:-2, 0]
    assert np.allclose(ratios, 1.0 - 0.09, rtol=1e-10)


def test_single_point_model_trace_total_length():
    a = np.array([4.0])
    m = fit([a], 0.5)
    tr = shift_until_converged(ShiftOperator(m), [1.0])
    assert tr.converged
    assert tr.total_length == pytest.approx(3.0, abs=1e-12)
    assert tr.iterations == 2  # lands on the point, then a zero-length confirming step


def test_trace_accounting():
    m = fit(np.random.default_rng(3).normal(size=(50, 2)), 0.5)
    tr = shift_until_converged(ShiftOperator(m), [1.0, 1.0])
    assert tr.path.shape == (tr.iterations + 1, 2)
    assert tr.total_length == pytest.approx(tr.step_lengths.sum())
    assert np.allclose(tr.step_lengths, np.linalg.norm(np.diff(tr.path, axis=0), axis=1))


def test_max_iter_cap_returns_unconverged_trace():
    op = ShiftOperator(standard_normal_1d(), tau=0.05)
    tr = shift_until_converged(op, [3.0], tol=1e-12, max_iter=3)
    assert not tr.converged
    assert tr.iterations == 3


def test_shift_until_converged_rejects_batch():
    m = fit(np.arange(10.0), 0.5)
    with pytest.raises(ValueError):
        shift_until_converged(ShiftOperator(m), np.zeros((4, 1)))


def test_denoise_row_order_equivariant():
    rng = np.random.default_rng(17)
    data = rng.normal(size=(40, 2))
    op = ShiftOperator(fit(data, 0.5))
    perm = rng.permutation(40)
    out = denoise(data, op, sweeps=2).points
    out_perm = denoise(data[perm], op, sweeps=2).points
    assert np.array_equal(out_perm, out[perm])


def test_denoise_sweeps_compose():
    rng = np.random.default_rng(19)
    data = rng.normal(size=(30, 2))
    op = ShiftOperator(fit(data, 0.6))
    a = denoise(data, op, sweeps=3).points
    b = denoise(denoise(data, op, sweeps=1), op, sweeps=2).points
    assert np.array_equal(a, b)


def test_denoise_raises_mean_estimated_density():
    rng = np.random.default_rng(23)
    ring_t = rng.uniform(0.0, 2.0 * np.pi, 150)
    pts = np.column_stack([6.0 * np.cos(ring_t), 6.0 * np.sin(ring_t)])
    pts += rng.normal(scale=1.0, size=pts.shape)
    m = fit(pts, 1.0)
    op = ShiftOperator(m)
    before = density_at(m, pts).mean()
    after = density_at(m, denoise(pts, op, sweeps=3).points).mean()
    assert after > before


def test_denoise_validates_arguments():
    m = fit(np.arange(10.0), 0.5)
    with pytest.raises(ValueError):
        denoise(np.arange(10.0), ShiftOperator(m), sweeps=0)
    with pytest.raises(ValueError):
        denoise(np.zeros((5, 2)), ShiftOperator(m), sweeps=1)


def test_zero_density_raises_with_point_index():
    m = fit([[0.0]], 0.1)
    for bad in (np.nan, np.inf, -np.inf):
        batch = np.array([[0.05], [bad]])
        with pytest.raises(ZeroDensityError) as exc:
            empirical_step_weighted_mean(m, batch)
        assert exc.value.index == 1
        with pytest.raises(ZeroDensityError):
            shift_step(ShiftOperator(m), [bad])


def test_zero_density_index_in_later_block():
    rng = np.random.default_rng(5)
    n = 1000
    m = fit(rng.normal(size=(n, 1)), 0.1)
    rows_per_block = density._BLOCK_FLOATS // n
    assert 77 >= 2 * rows_per_block  # row 77 lies past the first two blocks
    batch = rng.normal(size=(100, 1))
    for bad in (np.nan, np.inf):
        batch[77] = bad
        with pytest.raises(ZeroDensityError) as exc:
            empirical_step_weighted_mean(m, batch)
        assert exc.value.index == 77
        with pytest.raises(ZeroDensityError) as exc:
            shift_step(ShiftOperator(m), batch)
        assert exc.value.index == 77


def split_batches(monkeypatch, n, rows, workers):
    """Force `rows`-row blocks and a split across `workers` ranges.

    Returns a list that collects ``(thread, range rows)`` for every range
    handed to `_kernel_blocks`.
    """
    monkeypatch.setattr(density, "_SPLIT_BLOCK_FLOATS", rows * n)
    monkeypatch.setattr(density, "_SPLIT_PAIRS", 0)
    monkeypatch.setattr(density, "_usable_cpus", lambda: workers)
    seen = []
    blocks = density._kernel_blocks

    def spy(cols, h, queries, block_rows):
        seen.append((threading.current_thread(), queries.shape[0]))
        return blocks(cols, h, queries, block_rows)

    monkeypatch.setattr(density, "_kernel_blocks", spy)
    return seen


@pytest.mark.parametrize("workers, ranges", [(2, [12, 8]), (3, [9, 6, 5])])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_split_batch_matches_serial_bit_for_bit(d, workers, ranges, monkeypatch):
    """Seven blocks of 3 rows (the last one of 2) split unevenly across threads."""
    rng = np.random.default_rng(70 + d)
    n = 40
    m = fit(rng.normal(size=(n, d)), 0.7)
    op = ShiftOperator(m, tau=0.5)
    q = rng.normal(size=(3 * 6 + 2, d))
    perm = rng.permutation(q.shape[0])
    evals = {
        "density": lambda x: density_at(m, x),
        "gradient": lambda x: gradient_at(m, x),
        "weighted mean": lambda x: empirical_step_weighted_mean(m, x),
        "ratio": lambda x: shift_step(op, x),
    }
    monkeypatch.setattr(density, "_BLOCK_FLOATS", 3 * n)
    serial = {name: f(q) for name, f in evals.items()}
    rowwise = {name: np.array([f(row) for row in q]) for name, f in evals.items()}
    seen = split_batches(monkeypatch, n, 3, workers)
    for name, f in evals.items():
        seen.clear()
        split = f(q)
        assert sorted(size for _, size in seen) == sorted(ranges), name
        assert len({thread for thread, _ in seen}) == workers, name
        assert np.array_equal(split, serial[name]), name
        assert np.array_equal(split, rowwise[name]), name
        assert np.array_equal(f(q[perm]), split[perm]), name


@pytest.mark.parametrize(
    "workers, far, index",
    [(2, [5, 14], 5), (3, [10, 16], 10), (2, [14], 14), (3, [17], 17)],
)
def test_split_batch_zero_density_reports_lowest_global_index(workers, far, index, monkeypatch):
    rng = np.random.default_rng(9)
    n = 40
    m = fit(rng.normal(size=(n, 1)), 0.1)
    batch = rng.normal(size=(3 * 6 + 2, 1))
    split_batches(monkeypatch, n, 3, workers)
    for bad in (np.nan, np.inf):
        batch[far] = bad
        with pytest.raises(ZeroDensityError) as exc:
            empirical_step_weighted_mean(m, batch)
        assert exc.value.index == index
        with pytest.raises(ZeroDensityError) as exc:
            shift_step(ShiftOperator(m), batch)
        assert exc.value.index == index


def test_steps_leave_ufunc_buffer_size_alone(monkeypatch):
    """The streamed differences restore numpy's buffer size before each
    block reaches its reduction, in the calling thread and in every range
    thread, after a serial step, a split one, and a split one that raises
    from a non-finite query."""
    rng = np.random.default_rng(12)
    n = 1000
    m = fit(rng.normal(size=(n, 1)), 0.3)
    batch = rng.normal(size=(40, 1))
    fresh = []  # the size a new thread starts with
    t = threading.Thread(target=lambda: fresh.append(np.getbufsize()))
    t.start()
    t.join(timeout=10)
    assert fresh
    seen = []

    def spy_on(blocks):
        def spy(cols, h, queries, rows):
            for block in blocks(cols, h, queries, rows):
                seen.append((threading.current_thread(), np.getbufsize()))
                yield block
        return spy

    def check(step, threads):
        seen.clear()
        with np.errstate():
            np.setbufsize(4096)
            step()
            assert np.getbufsize() == 4096
        me = threading.current_thread()
        assert len({thread for thread, _ in seen}) == threads
        assert all(size == (4096 if thread is me else fresh[0]) for thread, size in seen)

    monkeypatch.setattr(density, "_kernel_blocks", spy_on(density._kernel_blocks))
    check(lambda: empirical_step_weighted_mean(m, batch), 1)
    check(lambda: gradient_at(m, batch), 1)
    split_batches(monkeypatch, n, 9, 2)
    monkeypatch.setattr(density, "_kernel_blocks", spy_on(density._kernel_blocks))
    check(lambda: empirical_step_weighted_mean(m, batch), 2)
    batch[30] = np.nan

    def fails():
        with pytest.raises(ZeroDensityError) as exc:
            empirical_step_weighted_mean(m, batch)
        assert exc.value.index == 30

    check(fails, 2)


def test_monotone_ascent_property():
    """Weighted-mean steps never decrease the estimated density (1000 random states)."""
    rng = np.random.default_rng(99)
    for _ in range(100):
        n = int(rng.integers(3, 50))
        d = int(rng.integers(1, 4))
        data = rng.normal(scale=1.5, size=(n, d))
        m = fit(data, float(rng.uniform(0.2, 1.5)))
        probes = rng.normal(scale=2.0, size=(10, d))
        stepped = empirical_step_weighted_mean(m, probes)
        assert np.all(density_at(m, stepped) >= density_at(m, probes) - 1e-12)


def test_trace_length_invariant_under_rigid_motion():
    rng = np.random.default_rng(31)
    data = rng.normal(size=(60, 2))
    x0 = rng.normal(size=2)
    theta = 0.83
    rot = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
    shiftv = np.array([5.0, -2.0])
    tr1 = shift_until_converged(ShiftOperator(fit(data, 0.5)), x0, tol=1e-9)
    tr2 = shift_until_converged(ShiftOperator(fit(data @ rot.T + shiftv, 0.5)), rot @ x0 + shiftv, tol=1e-9)
    assert tr2.total_length == pytest.approx(tr1.total_length, rel=1e-7, abs=1e-9)


def test_operator_validation():
    with pytest.raises(ValueError):
        ShiftOperator(standard_normal_1d())  # analytic source needs explicit tau
    m = fit(np.arange(10.0), 0.5)
    with pytest.raises(ValueError):
        ShiftOperator(m, tau=-0.1)
    with pytest.raises(ValueError):
        shift_until_converged(ShiftOperator(standard_normal_1d(), tau=0.3), [1.0])  # analytic needs tol


def test_default_tolerance_tracks_data_scale():
    rng = np.random.default_rng(37)
    base = rng.normal(size=(50, 1))
    for scale in (1.0, 1000.0):
        m = fit(base * scale, 0.4 * scale)
        tr = shift_until_converged(ShiftOperator(m), [0.5 * scale])
        assert tr.converged
        # final step below the scale-aware tolerance
        assert tr.step_lengths[-1] < 1e-7 * (base * scale).std(ddof=1)


def test_immutability_of_inputs():
    rng = np.random.default_rng(41)
    data = rng.normal(size=(20, 2))
    snapshot = data.copy()
    cloud = PointCloud(data)
    op = ShiftOperator(fit(cloud, 0.5))
    denoise(cloud, op, sweeps=2)
    shift_until_converged(op, data[0])
    assert np.array_equal(data, snapshot)
    assert np.array_equal(cloud.points, snapshot)


def misaligned(a):
    """A copy of `a` held as a view that starts 8 bytes into its buffer."""
    buf = np.empty(a.size + 1)
    view = buf[1:].reshape(a.shape)
    view[...] = a
    return view


@pytest.mark.parametrize("block", ["default", "5 rows", "split"])
@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("n", [8193, 12345, 40000])
def test_long_rows_batch_matches_rows_and_permutation(n, d, block, monkeypatch):
    """Rows longer than one reduction chunk reduce the same way in any batch.

    einsum would split such a row at offsets that depend on where it sits in
    the block; the fixed column chunks must make the batch, each row alone
    and a row-permuted batch agree bit for bit, also on misaligned views.
    """
    rng = np.random.default_rng(n + d)
    data = misaligned(rng.normal(size=(n, d)))
    m = fit(data, 0.7)
    op = ShiftOperator(m, tau=0.5)
    q = misaligned(rng.normal(size=(11, d)))
    perm = rng.permutation(q.shape[0])
    evals = {
        "density": lambda x: density_at(m, x),
        "gradient": lambda x: gradient_at(m, x),
        "weighted mean": lambda x: empirical_step_weighted_mean(m, x),
        "ratio": lambda x: shift_step(op, x),
    }
    rowwise = {name: np.array([f(row) for row in q]) for name, f in evals.items()}
    if block == "5 rows":
        monkeypatch.setattr(density, "_BLOCK_FLOATS", 5 * n)
    elif block == "split":
        split_batches(monkeypatch, n, 2, 2)
    for name, f in evals.items():
        batch = f(q)
        assert np.array_equal(batch, rowwise[name]), name
        assert np.array_equal(f(q[perm]), batch[perm]), name


_BLAS_THREADS_PROBE = """
import hashlib, numpy as np
from msdenoise import ShiftOperator, density_at, empirical_step_weighted_mean, fit, gradient_at, shift_step
rng = np.random.default_rng(12345)
m = fit(rng.normal(size=(12345, 2)), 0.4)
q = rng.normal(size=(400, 2))
outs = (density_at(m, q), gradient_at(m, q), empirical_step_weighted_mean(m, q),
        shift_step(ShiftOperator(m, tau=0.3), q))
print(hashlib.sha1(b"".join(o.tobytes() for o in outs)).hexdigest())
"""


def test_step_bits_do_not_depend_on_blas_threads():
    """The kernel reductions use no BLAS, so one BLAS thread gives the same bytes."""
    import msdenoise

    env = {k: v for k, v in os.environ.items() if not k.endswith("_NUM_THREADS")}
    src = os.path.dirname(os.path.dirname(msdenoise.__file__))
    env["PYTHONPATH"] = os.pathsep.join([src, env.get("PYTHONPATH", "")])
    digests = []
    for threads in (None, "1"):
        run_env = dict(env) if threads is None else dict(env, OPENBLAS_NUM_THREADS=threads)
        res = subprocess.run([sys.executable, "-c", _BLAS_THREADS_PROBE], env=run_env,
                             capture_output=True, text=True, timeout=120, check=True)
        digests.append(res.stdout.strip())
    assert len(digests[0]) == 40
    assert digests[0] == digests[1]


@pytest.mark.parametrize("d", [1, 2])
def test_far_field_step_takes_max_shifted_weights(d):
    """A query whose every weight underflows steps to the weighted mean.

    The far rows match a pure-python loop over max-shifted exponents, and the
    in-range rows of the same batch keep the bits they have without them.
    """
    rng = np.random.default_rng(30 + d)
    data = rng.normal(size=(30, d))
    h = 1.0
    m = fit(data, h)
    near = rng.normal(size=(6, d))
    # at 45 the nearest few data carry weight; at 5000 only the nearest does
    far = np.array([[45.0] + [-3.0] * (d - 1), [5000.0] * d])
    batch = np.vstack([near[:3], far[:1], near[3:], far[1:]])
    assert np.all(np.exp(-((data - far[:, None]) ** 2).sum(axis=2) / (2 * h * h)) == 0.0)
    out = empirical_step_weighted_mean(m, batch)
    # in-range rows take the plain kernel weights, unshifted
    cols = np.ascontiguousarray(data.T)
    (_, _, w, _), = density._kernel_blocks(cols, h, near, near.shape[0])
    plain = np.column_stack([density._row_sums(w, c) for c in cols]) / density._row_sums(w)[:, None]
    assert np.array_equal(np.delete(out, [3, 7], axis=0), plain)
    assert np.array_equal(np.delete(out, [3, 7], axis=0), empirical_step_weighted_mean(m, near))
    assert np.array_equal(out, np.vstack([empirical_step_weighted_mean(m, row) for row in batch]))
    for x, got in zip(far, out[[3, 7]]):
        expo = [-sum((x[j] - row[j]) ** 2 for j in range(d)) / (2 * h * h) for row in data]
        top = max(expo)
        weights = [math.exp(e - top) for e in expo]
        ref = np.array([sum(wt * row[j] for wt, row in zip(weights, data)) for j in range(d)])
        ref /= sum(weights)
        assert np.allclose(got, ref, rtol=1e-12, atol=1e-12)
        assert density_at(m, got) > 0.0


def test_ratio_step_far_field_takes_max_shifted_weights():
    """At tau != h a query whose every weight underflows still steps.

    Its density and gradient sums come from max-shifted weights, so it moves
    (tau / h)^2 of the way to the weighted mean; the in-range rows of the
    same batch keep the bits they have without it.
    """
    rng = np.random.default_rng(0)
    data = rng.normal(size=(30, 1))
    m = fit(data, 1.0)
    op = ShiftOperator(m, tau=0.5)
    assert density_at(m, [45.0]) == 0.0
    expo = [-((45.0 - x) ** 2) / 2.0 for x in data[:, 0]]
    weights = [math.exp(e - max(expo)) for e in expo]
    mean = sum(w * x for w, x in zip(weights, data[:, 0])) / sum(weights)
    got = shift_step(op, [45.0])
    assert got[0] == pytest.approx(45.0 + 0.25 * (mean - 45.0), rel=1e-12)
    assert got[0] == pytest.approx(45.0 + 0.25 * (empirical_step_weighted_mean(m, [45.0])[0] - 45.0),
                                   rel=1e-12)
    near = rng.normal(size=(4, 1))
    batch = np.vstack([near[:2], [[45.0]], near[2:]])
    out = shift_step(op, batch)
    assert np.array_equal(np.delete(out, 2, axis=0), shift_step(op, near))
    assert np.array_equal(out[2], got)
    assert np.array_equal(op.step(batch), out)


@pytest.mark.parametrize("d", [1, 2, 3, 5])
@pytest.mark.parametrize("n", [7, 300, 9000])
def test_far_field_weights_take_the_kernel_block_distances(d, n):
    """The max-shifted weights keep the bits of exponents summed over the
    coordinates in order, as `density._sq_distances` sums them."""
    rng = np.random.default_rng(10 * d + n)
    cols = np.ascontiguousarray(3.0 * rng.normal(size=(n, d)).T)
    for _ in range(3):
        q = 40.0 * rng.normal(size=d)
        h = 0.05 + rng.random()
        expo = np.square(cols - q[:, None]).sum(axis=0) * (-0.5 / (h * h))
        want = np.exp(expo - expo.max())
        got = np.zeros(n)
        shift._far_field_weights(cols, h, q, got)
        assert np.array_equal(got, want)
    untouched = np.full(n, 7.0)
    shift._far_field_weights(cols, 1.0, np.full(d, np.nan), untouched)
    assert np.all(untouched == 7.0)
