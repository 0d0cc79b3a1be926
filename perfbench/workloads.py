"""The benchmark's workloads, shared by run.py and worker.py.

Each workload is a fixed list of `msdenoise` CLI invocations built from one
seed.  `imports` are the modules the subcommand loads lazily; the set-up
probe imports them, so `setup_s` carries what a CLI user pays on every run
and the timed passes do not.  `expected_calls` are the span counts the
configuration implies (checked on every traced pass); `recorded_counts` are
data-dependent counts, recorded per seed in reference.json and required to
repeat exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

# --seed selects one of POOL input sets (seed mod POOL), so that every run
# can be checked against outputs recorded in reference.json.
POOL = 16


@dataclass(frozen=True)
class Workload:
    name: str
    invocations: Callable[[int], list]
    imports: tuple
    expected_calls: dict
    dominant: str
    key_outputs: Callable[[dict], dict]
    recorded_counts: tuple = ()
    passed_flag: bool = False


def _twosample(seed):
    return [["twosample", "--scenario", "noise", "--grid", "0,300", "--reps", "10",
             "--seed", str(seed)]]


def _theory(seed):
    return [["theory", "--check", "t5", "--seed", str(seed)]]


def _scenes_2d(seed):
    return ([["cluster-eval", "--case", "bullseye1", "--reps", "25", "--seed", str(seed)]]
            + [["anomaly", "--seed", str(seed + i)] for i in range(4)])


def _scene_outputs(r):
    if r["command"] == "anomaly":
        return {"top_k": r["top_k"], "n_recovered": r["n_recovered"]}
    return {"ari_before_mean": r["ari_before_mean"], "ari_after_mean": r["ari_after_mean"]}


WORKLOADS = {w.name: w for w in (
    Workload(
        name="twosample-denoised-null",
        invocations=_twosample,
        imports=("msdenoise.twosample", "msdenoise.synthetic", "scipy.spatial.distance"),
        expected_calls={"density.scv": 40, "twosample.permutation_test": 40,
                        "twosample.msd_pipeline": 40, "shift.step": 40},
        dominant="density.scv",
        key_outputs=lambda r: {"power_before": r["power_before"],
                               "power_after": r["power_after"]},
    ),
    Workload(
        name="theory-sweeps",
        invocations=_theory,
        imports=("msdenoise.theory_lab",),
        expected_calls={"theory_lab.multi_sweep_mode_growth": 1},
        dominant="shift.step",
        key_outputs=lambda r: {"values": r["report"]["values"]},
        recorded_counts=("shift.step.calls", "shift.step.rows"),
        passed_flag=True,
    ),
    Workload(
        name="cluster-anomaly-2d",
        invocations=_scenes_2d,
        imports=("msdenoise.clustering", "msdenoise.anomaly", "msdenoise.synthetic",
                 "msdenoise.shift", "scipy.spatial.distance", "scipy.sparse",
                 "scipy.sparse.csgraph"),
        expected_calls={"clustering.spectral": 50, "clustering.kmeans": 50,
                        "density.scv": 29, "anomaly.anomaly_scores": 4},
        dominant="shift.step",
        key_outputs=_scene_outputs,
        recorded_counts=("shift.step.calls", "shift.step.rows"),
    ),
)}
