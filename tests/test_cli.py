"""End-to-end checks of the command line interface via main(argv)."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

import msdenoise.cli
from msdenoise import anomaly_scores, fit
from msdenoise.cli import CliError, _read_csv, load_dataset, main


def run_cli(tmp_path, argv, name="report.json"):
    """Run main with --out-json and return (exit code, parsed report)."""
    out = tmp_path / name
    code = main(argv + ["--out-json", str(out)])
    report = json.loads(out.read_text()) if out.exists() else None
    return code, report


# ---------------------------------------------------------------------------
# gen


def test_gen_case_writes_labeled_csv(tmp_path):
    out = tmp_path / "spiral4.csv"
    code, report = run_cli(tmp_path, ["gen", "--case", "spiral4", "--out", str(out)])
    assert code == 0
    assert report["rows"] == 320 and report["dim"] == 2
    assert report["label_counts"] == [150, 150, 20]
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "x0,x1,label"
    assert len(lines) == 321
    arr, header = _read_csv(str(out))
    assert header == ["x0", "x1", "label"]
    assert arr.shape == (320, 3)
    assert set(np.unique(arr[:, 2])) == {0.0, 1.0, 2.0}


@pytest.mark.parametrize("case, counts", [("spiral", [250, 250]),
                                          ("anomaly", [200, 200, 200, 5])])
def test_gen_named_scene_writes_labeled_csv(tmp_path, case, counts):
    out = tmp_path / f"{case}.csv"
    code, report = run_cli(tmp_path, ["gen", "--case", case, "--out", str(out), "--seed", "2"])
    assert code == 0
    assert report["rows"] == sum(counts) and report["dim"] == 2
    assert report["label_counts"] == counts
    arr, header = _read_csv(str(out))
    assert header == ["x0", "x1", "label"]
    assert np.bincount(arr[:, 2].astype(np.int64)).tolist() == counts


def test_gen_no_labels(tmp_path):
    out = tmp_path / "plain.csv"
    code, _ = run_cli(tmp_path, ["gen", "--case", "bullseye", "--n0", "50",
                                 "--out", str(out), "--no-labels"])
    assert code == 0
    arr, header = _read_csv(str(out))
    assert header == ["x0", "x1"]
    assert arr.shape == (50, 2)


def test_gen_rerun_byte_identical(tmp_path):
    a, b, c = (tmp_path / n for n in ("a.csv", "b.csv", "c.csv"))
    main(["gen", "--case", "gmm1d", "--n0", "100", "--out", str(a), "--seed", "4"])
    main(["gen", "--case", "gmm1d", "--n0", "100", "--out", str(b), "--seed", "4"])
    main(["gen", "--case", "gmm1d", "--n0", "100", "--out", str(c), "--seed", "5"])
    assert a.read_bytes() == b.read_bytes()
    assert a.read_bytes() != c.read_bytes()


# ---------------------------------------------------------------------------
# denoise


def test_denoise_moves_points_uphill(tmp_path):
    src = tmp_path / "in.csv"
    main(["gen", "--case", "gmm1d", "--n0", "200", "--out", str(src)])
    dst = tmp_path / "out.csv"
    code, report = run_cli(tmp_path, ["denoise", str(src), str(dst), "--h", "0.3"])
    assert code == 0
    assert report["bandwidth"] == 0.3
    assert report["kde_mean_after"] >= report["kde_mean_before"]
    arr, header = _read_csv(str(dst))
    assert arr.shape == (200, 1)
    assert header == ["x0"]  # input header carried through

    dst2 = tmp_path / "out2.csv"
    main(["denoise", str(src), str(dst2), "--h", "0.3"])
    assert dst.read_bytes() == dst2.read_bytes()


def test_denoise_usage_errors(tmp_path):
    src = tmp_path / "in.csv"
    src.write_text("0.0\n1.0\n2.0\n")
    dst = tmp_path / "out.csv"
    assert main(["denoise", str(src), str(dst), "--sweeps", "0"]) == 2
    assert main(["denoise", str(src), str(dst), "--h", "-1"]) == 2
    assert main(["denoise", str(src), str(dst), "--h", "wat"]) == 2
    assert main(["denoise", str(tmp_path / "missing.csv"), str(dst)]) == 2


# ---------------------------------------------------------------------------
# CSV parsing diagnostics


def test_read_csv_reports_bad_cell_position(tmp_path):
    f = tmp_path / "bad.csv"
    f.write_text("x,y\n1.0,2.0\n3.0,oops\n")
    with pytest.raises(CliError, match="line 3, column 2"):
        _read_csv(str(f))


def test_read_csv_reports_ragged_row(tmp_path):
    f = tmp_path / "ragged.csv"
    f.write_text("1.0,2.0\n3.0\n")
    with pytest.raises(CliError, match="line 2.*expected 2 columns, found 1"):
        _read_csv(str(f))


def test_read_csv_rejects_non_finite(tmp_path):
    f = tmp_path / "inf.csv"
    f.write_text("1.0,2.0\n3.0,nan\n")
    with pytest.raises(CliError, match="line 2, column 2: non-finite"):
        _read_csv(str(f))


def test_read_csv_empty_and_header_only(tmp_path):
    f = tmp_path / "empty.csv"
    f.write_text("")
    with pytest.raises(CliError, match="empty"):
        _read_csv(str(f))
    f.write_text("x,y\n")
    with pytest.raises(CliError, match="header but no data"):
        _read_csv(str(f))


def test_read_csv_headerless_numeric(tmp_path):
    f = tmp_path / "plain.csv"
    f.write_text("1.5,2.5\n-3.0,4.0\n")
    arr, header = _read_csv(str(f))
    assert header is None
    assert np.array_equal(arr, [[1.5, 2.5], [-3.0, 4.0]])


def test_read_csv_skips_a_byte_order_mark(tmp_path):
    # Excel saves UTF-8 CSVs with a BOM, which must not turn row 1 into a header
    f = tmp_path / "excel.csv"
    f.write_bytes("1.0,2.0\n3.0,4.0\n5.0,6.0\n".encode("utf-8-sig"))
    arr, header = _read_csv(str(f))
    assert header is None
    assert np.array_equal(arr, [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
    f.write_bytes("x,y\n1.0,2.0\n".encode("utf-8-sig"))
    arr, header = _read_csv(str(f))
    assert header == ["x", "y"] and np.array_equal(arr, [[1.0, 2.0]])


def test_read_csv_refuses_text_that_is_not_utf8(tmp_path, capsys):
    # a UTF-16 file (as some spreadsheets export it) fails naming the file
    f = tmp_path / "utf16.csv"
    f.write_bytes("1.0,2.0\n3.0,4.0\n".encode("utf-16"))
    with pytest.raises(CliError, match=r"utf16\.csv: not UTF-8 text \(byte 0: "):
        _read_csv(str(f))
    assert main(["anomaly", "--input", str(f)]) == 2
    assert f"{f}: not UTF-8 text" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# reference dataset loading


def _fake_seeds_csv(path, with_label):
    rng = np.random.default_rng(0)
    arr = rng.normal(size=(210, 7)) * 3.0 + 10.0
    if with_label:
        arr = np.column_stack([arr, rng.integers(1, 4, 210).astype(float)])
    np.savetxt(path, arr, delimiter=",", fmt="%.8g")


def test_load_dataset_standardizes_and_splits_labels(tmp_path):
    f = tmp_path / "seeds.csv"
    _fake_seeds_csv(f, with_label=True)
    cloud, labels = load_dataset("seeds", str(f))
    assert cloud.points.shape == (210, 7)
    assert labels.shape == (210,) and labels.dtype == np.int64
    assert np.allclose(cloud.points.mean(axis=0), 0.0, atol=1e-12)
    assert np.allclose(cloud.points.std(axis=0, ddof=1), 1.0, rtol=1e-12)


def test_load_dataset_without_labels(tmp_path):
    f = tmp_path / "seeds.csv"
    _fake_seeds_csv(f, with_label=False)
    cloud, labels = load_dataset("seeds", str(f))
    assert cloud.points.shape == (210, 7)
    assert labels is None


@pytest.mark.parametrize("header", [False, True])
def test_load_dataset_refuses_labels_that_are_not_whole(tmp_path, header):
    f = tmp_path / "seeds.csv"
    _fake_seeds_csv(f, with_label=True)
    rows = f.read_text().splitlines()
    for i, label in [(4, "1.5"), (9, "2.9")]:
        rows[i] = rows[i].rsplit(",", 1)[0] + "," + label
    if header:
        rows.insert(0, ",".join(f"c{j}" for j in range(8)))
    f.write_text("\n".join(rows) + "\n")
    line = 6 if header else 5
    with pytest.raises(CliError, match=rf"{f}: line {line}: label 1.5 is not a whole number"):
        load_dataset("seeds", str(f))


def test_load_dataset_shape_mismatch(tmp_path):
    f = tmp_path / "seeds.csv"
    np.savetxt(f, np.zeros((100, 7)), delimiter=",", fmt="%.3g")
    with pytest.raises(CliError, match="210x7"):
        load_dataset("seeds", str(f))
    with pytest.raises(CliError, match="unknown dataset"):
        load_dataset("wine", str(f))


# ---------------------------------------------------------------------------
# cluster-eval


def test_cluster_eval_case_deterministic(tmp_path):
    argv = ["cluster-eval", "--case", "spiral4", "--reps", "2", "--seed", "3"]
    code1, rep1 = run_cli(tmp_path, argv, "r1.json")
    code2, rep2 = run_cli(tmp_path, argv, "r2.json")
    assert code1 == code2 == 0
    assert rep1["ari_before"] == rep2["ari_before"]
    assert rep1["ari_after"] == rep2["ari_after"]
    assert rep1["gap"] == rep1["ari_after_mean"] - rep1["ari_before_mean"]
    assert rep1["n_reps"] == 2 and rep1["k"] == 2


def test_cluster_eval_overrides_accepted(tmp_path):
    code, rep = run_cli(tmp_path, ["cluster-eval", "--case", "spiral4",
                                   "--reps", "1", "--knn", "0", "--sigma", "0.5",
                                   "--algo", "spectral", "--h", "0.2"])
    assert code == 0
    assert rep["config"]["knn"] == 0 and rep["config"]["sigma"] == "0.5"


def test_cluster_eval_no_msd_skips_after(tmp_path):
    code, rep = run_cli(tmp_path, ["cluster-eval", "--case", "spiral4",
                                   "--reps", "1", "--no-msd"])
    assert code == 0
    assert "ari_after" not in rep and "gap" not in rep


def test_cluster_eval_usage_errors(tmp_path):
    assert main(["cluster-eval", "--reps", "1"]) == 2
    assert main(["cluster-eval", "--dataset", "seeds", "--reps", "1"]) == 2
    assert main(["cluster-eval", "--case", "spiral4", "--reps", "0"]) == 2
    assert main(["cluster-eval", "--case", "spiral4", "--reps", "1",
                 "--sigma", "wat"]) == 2


@pytest.mark.parametrize("flags", [["--knn", "5"], ["--sigma", "0.01"],
                                   ["--knn", "5", "--sigma", "auto"]])
def test_cluster_eval_dataset_refuses_case_graph_flags(tmp_path, capsys, flags):
    # run_dataset_eval takes no graph settings, so these would be ignored
    f = tmp_path / "seeds.csv"
    _fake_seeds_csv(f, with_label=True)
    argv = ["cluster-eval", "--dataset", "seeds", "--input", str(f), "--reps", "1",
            "--no-msd"]
    assert main(argv + flags) == 2
    assert "not to --dataset" in capsys.readouterr().err
    assert main(argv) == 0


@pytest.mark.parametrize("algo", ["kmeans", "hier"])
@pytest.mark.parametrize("flags", [["--knn", "5"], ["--sigma", "0.01"]])
def test_cluster_eval_case_refuses_graph_flags_off_spectral(capsys, algo, flags):
    # only spectral builds an affinity graph, so these would be ignored
    argv = ["cluster-eval", "--case", "spiral4", "--algo", algo, "--reps", "1", "--no-msd"]
    assert main(argv + flags) == 2
    assert "--algo spectral only" in capsys.readouterr().err
    assert main(argv) == 0


def test_cluster_eval_refuses_an_infinite_sigma(capsys):
    argv = ["cluster-eval", "--case", "bullseye1", "--reps", "1", "--sigma", "inf"]
    assert main(argv) == 2
    assert "affinity_sigma must be positive" in capsys.readouterr().err


@pytest.mark.parametrize("h,code", [("wat", 2), ("-1", 2), ("inf", 2), ("nan", 2),
                                    ("0.3", 0), ("scv", 0)])
def test_cluster_eval_no_msd_still_parses_h(tmp_path, h, code):
    got, rep = run_cli(tmp_path, ["cluster-eval", "--case", "spiral4", "--reps", "1",
                                  "--no-msd", "--h", h])
    assert got == code
    if code == 0:
        assert rep["config"]["h"] == h and "ari_after" not in rep


# ---------------------------------------------------------------------------
# twosample


def test_twosample_mixture_smoke_and_csv(tmp_path):
    csv_out = tmp_path / "curve.csv"
    code, rep = run_cli(tmp_path, ["twosample", "--scenario", "mixture",
                                   "--grid", "0.5,0.3", "--n0", "60",
                                   "--reps", "3", "--n-perm", "99",
                                   "--out-csv", str(csv_out)])
    assert code == 0
    assert rep["grid"] == [0.5, 0.3]
    assert len(rep["power_before"]) == 2
    assert all(0.0 <= p <= 1.0 for p in rep["power_before"])
    assert all(0.0 <= p <= 1.0 for p in rep["power_after"])
    lines = csv_out.read_text().strip().split("\n")
    assert lines[0] == "grid,power_before,power_after,n_reps"
    body = np.loadtxt(str(csv_out), delimiter=",", skiprows=1)
    assert body.shape == (2, 4)


def test_twosample_no_msd_reports_null_after(tmp_path):
    code, rep = run_cli(tmp_path, ["twosample", "--scenario", "mixture",
                                   "--grid", "0.5", "--n0", "40", "--reps", "2",
                                   "--n-perm", "99", "--no-msd"])
    assert code == 0
    assert rep["power_after"] is None


def test_twosample_no_msd_csv_text(tmp_path):
    csv_out = tmp_path / "curve.csv"
    code, rep = run_cli(tmp_path, ["twosample", "--scenario", "noise",
                                   "--grid", "0,40", "--n0", "60", "--reps", "2",
                                   "--n-perm", "99", "--no-msd",
                                   "--out-csv", str(csv_out)])
    assert code == 0
    # no after column: nan cells; n_reps an integer cell
    assert csv_out.read_text() == (
        "grid,power_before,power_after,n_reps\n"
        + "".join("%d,%.17g,nan,2\n" % (g, p)
                  for g, p in zip(rep["grid"], rep["power_before"])))


def test_twosample_report_merges_extras_and_csv_text(tmp_path):
    csv_out = tmp_path / "curve.csv"
    code, rep = run_cli(tmp_path, ["twosample", "--scenario", "noise",
                                   "--grid", "0", "--n0", "60", "--reps", "1",
                                   "--n-perm", "99", "--out-csv", str(csv_out)])
    assert code == 0
    assert set(rep) - {"command", "version", "config"} == {
        "grid", "power_before", "power_after", "n_reps", "test", "alpha",
        "h0_after_rate", "h0_inflated"}
    assert rep["h0_after_rate"] == rep["power_after"][0]
    assert csv_out.read_text() == (
        "grid,power_before,power_after,n_reps\n"
        "0,%.17g,%.17g,1\n" % (rep["power_before"][0], rep["power_after"][0]))


def test_twosample_mmd_rates_pinned(tmp_path):
    # the pooled MMD path end to end, before and after denoising: rates
    # recorded from the per-sample-block formulas the oracle tests keep
    code, rep = run_cli(tmp_path, ["twosample", "--scenario", "mixture", "--test", "mmd",
                                   "--grid", "0.5,0.35,0.2", "--n0", "80", "--reps", "8",
                                   "--n-perm", "99", "--seed", "3"])
    assert code == 0
    assert rep["power_before"] == [0.0, 0.375, 0.875]
    assert rep["power_after"] == [0.0, 0.5, 0.75]
    assert rep["h0_after_rate"] == 0.0 and rep["h0_inflated"] is False


@pytest.mark.parametrize("alpha", ["1.5", "nan", "0", "1"])
def test_twosample_alpha_outside_unit_interval(capsys, alpha):
    code = main(["twosample", "--scenario", "noise", "--grid", "0", "--n0", "50",
                 "--reps", "1", "--n-perm", "99", "--alpha", alpha])
    out, err = capsys.readouterr()
    assert code == 2
    assert out == "" and "alpha must lie in (0, 1)" in err


def test_twosample_usage_errors(tmp_path):
    assert main(["twosample", "--scenario", "noise", "--reps", "0"]) == 2
    assert main(["twosample", "--scenario", "noise", "--grid", "0,10",
                 "--reps", "1", "--n-perm", "5"]) == 2  # permutation floor


@pytest.mark.parametrize("scenario, grid, entry", [
    ("noise", ",", "''"), ("noise", "0,x", "'x'"), ("noise", "1.5", "'1.5'"),
    ("mixture", "0.5,", "''"), ("mixture", "0.5,y", "'y'"),
])
def test_twosample_grid_entry_that_is_not_a_number(capsys, scenario, grid, entry):
    code = main(["twosample", "--scenario", scenario, "--grid", grid,
                 "--n0", "50", "--reps", "1", "--n-perm", "99"])
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    assert err.startswith("error: --grid") and f"got {entry}" in err


# ---------------------------------------------------------------------------
# anomaly


def test_anomaly_builtin_scenario_recovers_planted(tmp_path):
    traces = tmp_path / "traces.csv"
    code, rep = run_cli(tmp_path, ["anomaly", "--k", "10",
                                   "--traces-out", str(traces)])
    assert code == 0
    assert rep["n_recovered"] == 5
    assert set(rep["recovered"]) <= set(rep["top_k"])
    assert len(rep["top_k"]) == 10
    assert rep["top_k_scores"] == sorted(rep["top_k_scores"], reverse=True)
    assert traces.read_text().startswith("point,step,x0")


def test_anomaly_from_csv(tmp_path):
    src = tmp_path / "pts.csv"
    main(["gen", "--case", "bullseye", "--n0", "80", "--out", str(src),
          "--no-labels"])
    code, rep = run_cli(tmp_path, ["anomaly", "--input", str(src), "--k", "3",
                                   "--h", "0.5"])
    assert code == 0
    assert len(rep["top_k"]) == 3
    assert rep["rows"] == 80


def test_anomaly_traces_csv_text(tmp_path):
    src, traces = tmp_path / "pts.csv", tmp_path / "traces.csv"
    main(["gen", "--case", "bullseye", "--n0", "40", "--out", str(src),
          "--no-labels"])
    code, _ = run_cli(tmp_path, ["anomaly", "--input", str(src), "--h", "0.5",
                                 "--traces-out", str(traces)])
    assert code == 0
    arr, _ = _read_csv(str(src))
    paths = [t.path for t in anomaly_scores(arr, fit(arr, 0.5), keep_traces=True).traces]
    lines = traces.read_text().splitlines()
    assert lines[0] == "point,step,x0,x1"
    # a path starts at its point
    assert lines[1] == "0,0," + ",".join("%.17g" % v for v in arr[0])
    assert len(lines) == 1 + sum(len(p) for p in paths)
    last = len(paths) - 1, len(paths[-1]) - 1
    assert lines[-1] == "%d,%d," % last + ",".join("%.17g" % v for v in paths[-1][-1])


def test_anomaly_k_too_large(tmp_path):
    src = tmp_path / "pts.csv"
    src.write_text("0.0\n1.0\n2.0\n")
    assert main(["anomaly", "--input", str(src), "--k", "5", "--h", "1.0"]) == 2


@pytest.mark.parametrize("k", ["81", "-1"])
def test_anomaly_k_checked_before_scoring(tmp_path, monkeypatch, k):
    def fail(*args, **kwargs):
        raise AssertionError("scored before --k was checked")

    # patched where the CLI binds them
    monkeypatch.setattr(msdenoise.cli, "anomaly_scores", fail)
    monkeypatch.setattr(msdenoise.density, "select_bandwidth_scv", fail)
    src = tmp_path / "pts.csv"
    main(["gen", "--case", "bullseye", "--n0", "80", "--out", str(src), "--no-labels"])
    assert main(["anomaly", "--input", str(src), "--k", k]) == 2


def test_anomaly_max_iter_checked_before_bandwidth_selection(monkeypatch):
    calls = []

    def spy(*args, **kwargs):
        calls.append(args)
        raise AssertionError("bandwidth selected before --max-iter was checked")

    monkeypatch.setattr(msdenoise.density, "select_bandwidth_scv", spy)
    assert main(["anomaly", "--max-iter", "0"]) == 2
    assert calls == []


# ---------------------------------------------------------------------------
# theory


def test_theory_ascent_passes(tmp_path):
    code, rep = run_cli(tmp_path, ["theory", "--check", "ascent"])
    assert code == 0
    assert rep["passed"] is True
    assert rep["violations"] == 0
    assert rep["evaluations"] == 10000


def test_theory_failure_exits_three(tmp_path, monkeypatch):
    import msdenoise.theory_lab as lab

    monkeypatch.setattr(lab, "run_check",
                        lambda check, seed: {"checks": {"forced": False}})
    code, rep = run_cli(tmp_path, ["theory", "--check", "t1"])
    assert code == 3
    assert rep["passed"] is False


# ---------------------------------------------------------------------------
# process-level behavior


def test_theory_report_lists_scaling_report_arrays(tmp_path, monkeypatch):
    import msdenoise.theory_lab as lab

    rep = lab.ScalingReport("x", [1.0, 2.0], [3.0, 4.0], np.float64(0.5), 0.1,
                            {"arr": np.arange(3), "pairs": (np.float64(1.5), [np.int64(2)])})
    monkeypatch.setattr(lab, "run_check",
                        lambda check, seed: {"checks": {"ok": True}, "report": rep})
    code, out = run_cli(tmp_path, ["theory", "--check", "t1"])
    assert code == 0
    text = (tmp_path / "report.json").read_text()
    assert '"arr": [\n        0,\n        1,\n        2\n      ]' in text
    assert out["report"] == {
        "name": "x", "grid": [1.0, 2.0], "values": [3.0, 4.0], "slope": 0.5,
        "slope_halfwidth": 0.1, "extras": {"arr": [0, 1, 2], "pairs": [1.5, [2]]}}


def test_unknown_subcommand_is_a_usage_error():
    with pytest.raises(SystemExit):
        main(["frobnicate"])


def test_report_stdout_matches_out_json(tmp_path, capsys):
    out = tmp_path / "rep.json"
    code = main(["theory", "--check", "ascent", "--out-json", str(out)])
    assert code == 0
    printed = capsys.readouterr().out
    assert printed.strip() == out.read_text().strip()
    json.loads(printed)  # valid JSON on stdout


def test_closed_stdout_pipe_still_writes_out_json(tmp_path):
    # `msdenoise ... --out-json F | head -1`: the reader leaves after the
    # first line while the report is still being written
    fcntl = pytest.importorskip("fcntl")
    if not hasattr(fcntl, "F_SETPIPE_SZ"):
        pytest.skip("pipe capacity cannot be set on this platform")
    out = tmp_path / "rep.json"
    read_fd, write_fd = os.pipe()
    # one page of capacity, so the ~7 kB report blocks the writer mid-way
    fcntl.fcntl(write_fd, fcntl.F_SETPIPE_SZ, 4096)
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.Popen(
        [sys.executable, "-m", "msdenoise.cli", "cluster-eval", "--case", "spiral4",
         "--algo", "hier", "--h", "0.3", "--reps", "150", "--out-json", str(out)],
        stdout=write_fd, stderr=subprocess.PIPE, env=env)
    os.close(write_fd)
    with os.fdopen(read_fd, "rb", buffering=0) as reader:
        first = reader.readline()
    _, err = proc.communicate(timeout=120)
    assert first == b"{\n"
    assert proc.returncode == 1
    assert b"Traceback" not in err and b"BrokenPipeError" not in err, err.decode()
    report = json.loads(out.read_text())
    assert report["n_reps"] == 150


# ---------------------------------------------------------------------------
# outputs and flags every command shares


def _filled(argv, tmp_path, target=None):
    """`argv` with SRC a small CSV in `tmp_path`, OK a path there and TARGET `target`."""
    src = tmp_path / "pts.csv"
    src.write_text("0.0\n1.0\n2.0\n4.0\n")
    paths = {"SRC": str(src), "OK": str(tmp_path / "ok.out"), "TARGET": target}
    return [paths.get(a, a) for a in argv]


# one run per output flag, writing that output to TARGET
_OUTPUT_RUNS = {
    "gen --out": ["gen", "--case", "bullseye", "--n0", "50", "--out", "TARGET"],
    "denoise output": ["denoise", "SRC", "TARGET", "--h", "1.0"],
    "--traces-out": ["anomaly", "--input", "SRC", "--h", "1.0", "--k", "1",
                     "--traces-out", "TARGET"],
    "--out-csv": ["twosample", "--scenario", "noise", "--grid", "0", "--reps", "1",
                  "--n0", "20", "--n-perm", "99", "--no-msd", "--out-csv", "TARGET"],
    "--out-json": ["gen", "--case", "bullseye", "--n0", "50", "--out", "OK",
                   "--out-json", "TARGET"],
}


@pytest.mark.parametrize("flag", list(_OUTPUT_RUNS))
def test_an_output_that_cannot_be_opened_exits_two_naming_it(tmp_path, capsys, flag):
    target = str(tmp_path / "missing" / "out.csv")
    assert main(_filled(_OUTPUT_RUNS[flag], tmp_path, target)) == 2
    out, err = capsys.readouterr()
    assert err == f"error: {target}: No such file or directory\n"
    assert out == ""


@pytest.mark.parametrize("argv", [
    ["gen", "--case", "bullseye", "--out", "OK"],
    ["denoise", "SRC", "OK", "--h", "1.0"],
    ["cluster-eval", "--case", "bullseye1", "--reps", "1"],
    ["twosample", "--scenario", "noise", "--grid", "0", "--reps", "1"],
    ["anomaly"],
    ["anomaly", "--input", "SRC", "--h", "1.0", "--k", "1"],
    ["theory", "--check", "ascent"],
], ids=["gen", "denoise", "cluster-eval", "twosample", "anomaly", "anomaly-input", "theory"])
def test_a_negative_seed_is_refused_by_name(tmp_path, capsys, argv):
    assert main(_filled(argv, tmp_path) + ["--seed", "-1"]) == 2
    out, err = capsys.readouterr()
    assert err == "error: --seed must be >= 0, got -1\n" and out == ""
    assert os.listdir(tmp_path) == ["pts.csv"]
