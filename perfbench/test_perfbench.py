"""The benchmark's own tests: smoke runs of every workload (small n, one
pass per process), the gates catching broken outputs, the seeded inputs
and the tracer's self-time arithmetic.

    python -m pytest -q perfbench
"""

import json
import math
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

import run
sys.path.insert(0, run.SRC)

import hopflift as hl  # noqa: E402
import inputs  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402

BENCH = os.path.join(run.ROOT, "BENCHMARK.json")


def _spec():
    with open(BENCH, encoding="ascii") as fh:
        return json.load(fh)


def _units(metrics):
    return {m["name"]: m["unit"] for m in metrics}


def _bench(*args, cwd=run.ROOT):
    return subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=600)


def test_benchmark_json_matches_runner():
    spec = _spec()
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert _units(spec["end_to_end"]) == run.END_TO_END
    assert _units(spec["per_layer"]) == run.PER_LAYER
    assert set(inputs.PINNED_CG_ITERS) == set(run.WORKLOADS)


#: per-layer values a smoke pass must show, proving the wrappers reach
#: the bindings each caller looks up (approx.lift, cli.build_lift, ...)
SMOKE_LAYERS = {
    "gauge-bump-n65": {"solvers.cg_solves": 1, "lift.calls": 0},
    "lift-sweep-n65": {"solvers.cg_solves": 4, "lift.calls": 4,
                       "approx.approximate_calls": 3},
    "cli-lift-n97": {"solvers.cg_solves": 1, "lift.calls": 2,
                     "approx.approximate_calls": 0},
}


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_smoke_prints_every_metric_with_unit(workload, trace):
    proc = _bench("--workload", workload, "--seed", "1", "--seconds", "1",
                  "--trace", trace, "--smoke")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    spec = _spec()["per_layer" if trace == "1" else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == _units(spec)
    for name in _units(spec):
        assert any(line.startswith(name + " ") for line in lines), name
    assert any(line.startswith("fail_frac ") for line in lines)
    assert any(line.startswith("provenance {") for line in lines)
    if trace == "0":
        assert all(v["value"] > 0 for v in result["metrics"].values())
    else:
        for name, want in SMOKE_LAYERS[workload].items():
            assert result["metrics"][name]["value"] == want, name


def test_fails_without_sources(tmp_path):
    shutil.copytree(os.path.join(run.ROOT, "perfbench"),
                    tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH, tmp_path)
    proc = _bench("--workload", "gauge-bump-n65", "--seed", "0",
                  "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


# ---------------------------------------------------------------------------
# gates


def test_gate_catches_hedgehog_checked_as_exact(monkeypatch, capsys):
    real = run.cli_steps

    def hedgehog_as_liftfam(n, seed):
        steps = real(n, seed)
        hog_gen = steps.pop(7)
        name, argv, code = steps[2]
        steps[2] = (name, [a.replace("lf_u", "hh_u") for a in argv], code)
        return [hog_gen] + steps

    monkeypatch.setattr(run, "cli_steps", hedgehog_as_liftfam)
    r = run.Run("cli-lift-n97", 1, smoke=True)
    wall, _ = run.cli_pass(r, 17, "gate-test", traced=False)
    out = capsys.readouterr().out
    assert wall is None and r.failed >= 1
    assert "3:check: exit code 2 != 0" in out
    assert "!= exact" in out


def test_gate_catches_eta_scaled_by_two():
    # the family's eta is constant and its D(u) vanishes, so 2 eta is
    # still closed: lift succeeds, with the wrong phase
    uhat0, u, eta = inputs.liftfam_fields(hl, 33, 1)
    eta2 = hl.VecField(eta.grid, 1, 2.0 * eta.values)
    p, _ = worker.sweep_pass(hl, (uhat0, u, eta2))
    assert p.misses["lift"][0].startswith("phase spread=")


def test_gate_catches_eta_that_is_not_closed():
    uhat0, u, eta = inputs.liftfam_fields(hl, 33, 1)
    x1 = u.grid.coords()[0]
    swirl = np.stack([np.zeros_like(x1), x1, np.zeros_like(x1)], axis=-1)
    eta2 = hl.VecField(eta.grid, 1, eta.values + swirl)
    p, _ = worker.sweep_pass(hl, (uhat0, u, eta2))
    assert p.misses["lift"][0].startswith("NotClosed")
    assert p.misses["convergence_sweep"][0].startswith("NotClosed")


def test_gate_catches_wrong_gauge():
    a0, g_form = inputs.bump_gauge_field(hl, 17, 1)
    wrong = hl.VecField(a0.grid, 1, 2.0 * a0.values)
    p, _ = worker.gauge_pass(hl, (wrong, g_form))
    assert p.misses["canonical_gauge"][0].startswith("recovery=")


def test_seed0_pins_cg_iterations(capsys):
    r = run.Run("gauge-bump-n65", 0, smoke=False)
    assert r.record("pass", 1, {}, 337)
    assert not r.record("pass", 1, {}, 336)
    assert (r.attempted, r.failed) == (2, 1)
    assert "336 != pinned 337" in capsys.readouterr().out
    assert run.Run("gauge-bump-n65", 5, smoke=False).record("pass", 1, {}, 336)


# ---------------------------------------------------------------------------
# seeded inputs


def test_seed0_is_the_acceptance_input():
    assert inputs.liftfam_params(0) == (math.pi / 4, (1.0, 0.0, 0.0),
                                        (0.0, 2.0, 0.0))
    assert inputs.bump_params(0) == ((0.0, 0.0, 1.0), 0.75)


@pytest.mark.parametrize("seed", [1, 2, 17, 123456])
def test_other_seeds_stay_in_family(seed):
    t0, a, b = inputs.liftfam_params(seed)
    assert 0.6 <= t0 <= 0.97
    assert np.linalg.norm(a) == pytest.approx(1.0, abs=1e-12)
    assert np.linalg.norm(b) == pytest.approx(2.0, abs=1e-12)
    assert np.dot(a, b) == pytest.approx(0.0, abs=1e-12)
    axis, half = inputs.bump_params(seed)
    assert np.linalg.norm(axis) == pytest.approx(1.0, abs=1e-12)
    assert 0.6 <= half <= 0.8
    assert inputs.liftfam_params(seed) == (t0, a, b)
    assert inputs.liftfam_params(seed + 1) != (t0, a, b)


# ---------------------------------------------------------------------------
# tracer arithmetic


def _span(id_, name, parent, start, end, **extra):
    return {"id": id_, "name": name, "parent": parent, "start": start,
            "end": end, "pass": 0, **extra}


def test_self_time_counts_overlapping_children_once():
    spans = [
        _span(1, "approx.convergence_sweep", None, 0.0, 10.0),
        _span(2, "approx.approximate", 1, 0.0, 6.0),
        _span(3, "lift.lift", 2, 1.0, 4.0),
        _span(4, "lift.lift", 2, 2.0, 5.0),
        _span(5, "solvers.conjugate_gradient", 3, 2.0, 3.0, iters=5,
              unknowns=8, nnz=20, bytes_per_iter=100),
        _span(6, "approx.approximate", 1, 0.0, 8.0),
        _span(7, "lift.lift", 6, 3.0, 7.0),
    ]
    t = tracer.combine([tracer.raw_layer_totals(spans)])
    assert t["approx.sweep_s"] == 10.0
    assert t["approx.approximate_calls"] == 2
    assert t["approx.approximate_s"] == 14.0
    # [1, 5] covered in the first, [3, 7] in the second
    assert t["approx.self_s"] == (6.0 - 4.0) + (8.0 - 4.0)
    assert t["lift.calls"] == 3
    assert t["lift.self_s"] == 10.0 - 1.0
    assert t["solvers.cg_iters"] == 5
    assert t["solvers.cg_ms_per_iter"] == 200.0


def test_combine_sums_times_and_maxes_sizes():
    a = tracer.raw_layer_totals([_span(1, "solvers.conjugate_gradient", None,
                                       0.0, 1.0, iters=10, unknowns=50,
                                       nnz=7, bytes_per_iter=9)])
    b = tracer.raw_layer_totals([_span(1, "solvers.conjugate_gradient", None,
                                       0.0, 3.0, iters=30, unknowns=20,
                                       nnz=70, bytes_per_iter=3)])
    t = tracer.combine([a, b])
    assert (t["solvers.cg_solves"], t["solvers.cg_iters"]) == (2, 40)
    assert t["solvers.cg_s"] == 4.0
    assert (t["solvers.cg_unknowns"], t["solvers.cg_nnz"],
            t["solvers.cg_bytes_per_iter"]) == (50, 70, 9)
    assert t["solvers.cg_ms_per_iter"] == 100.0
