import csv
import gc
import io
import json
import re
import sys
import warnings

import numpy as np
import pytest

from fastwave.cli import (
    ConfigError, build_q, build_v, golden_omega, main, named_config,
    run_experiment, emit_report, validate_config,
)
from fastwave.harmonics import Lattice
from oracles import check_reality, coeff, time_limit


def small_cfg(**over):
    cfg = named_config("demo")
    cfg.update({"J": 10, "L": 4, "M": 500.0, "sweep_M": [1e2, 1e3, 1e4],
                "sweep_gamma": [1e-1, 1e-2], "samples": 120, "p_max": 3,
                "evolve": {"T_periods": 5, "r": 1.0}})
    cfg.update(over)
    return cfg


def test_validate_config_guards():
    with pytest.raises(ConfigError):
        validate_config({"alpha": 1.0})
    with pytest.raises(ConfigError):
        validate_config({"tau": 1.0})            # violates the tau constraint
    with pytest.raises(ConfigError):
        validate_config({"S": 3.0})              # below s0 + sigma*
    cfg = validate_config({})
    assert cfg["gamma0"] == pytest.approx(cfg["gamma"] ** (cfg["alpha"] / 4))


def test_validate_config_requires_tau0_above_nu_minus_1():
    # tau = 5 meets the tau constraint at both tau0, so tau0 alone decides
    with pytest.raises(ConfigError, match="tau0"):
        validate_config({"nu": 2, "tau0": 1.0, "tau": 5.0})
    assert validate_config({"nu": 2, "tau0": 1.5, "tau": 5.0})["tau0"] == 1.5
    for name in ("demo", "paper-toy", "measure"):
        validate_config(named_config(name))


def test_build_q_families():
    J = 8
    c = build_q({"q": {"family": "constant", "value": 2.0}}, J)
    assert c[J] == 2.0 and np.sum(np.abs(c)) == 2.0
    c = build_q({"q": {"family": "cosine", "mean": 1.0, "amplitude": 2.0}}, J)
    assert c[J] == 1.0 and c[J + 1] == 1.0
    c = build_q({"q": {"family": "smooth-random", "decay": 4.0, "seed": 1,
                       "scale": 0.5, "mean": 1.0}}, J)
    assert np.max(np.abs(c - np.conj(c[::-1]))) < 1e-14
    with pytest.raises(ConfigError):
        build_q({"q": {"family": "nope"}}, J)


def test_build_v_families():
    lat = Lattice(1, 4, 6)
    v = build_v({"v": {"family": "cosine-product", "amplitude": 1.0}}, lat)
    assert coeff(v, (1,), 1) == pytest.approx(0.25)
    assert check_reality(v)
    v = build_v({"v": {"family": "smooth-random", "seed": 3, "ell_decay": 5.0,
                       "j_decay": 6.0, "ell_compensated": True}}, lat)
    assert check_reality(v)
    assert np.max(np.abs(v.x_slice())) == 0.0     # zero angle average
    z = build_v({"v": {"family": "zero"}}, lat)
    assert np.max(np.abs(z.coeffs)) == 0.0


def test_file_inputs_are_closed(tmp_path, monkeypatch):
    # a q-file, a v-file and a --config file load with ResourceWarning raised
    # as an error; a file left open warns from its finalizer, where the error
    # is unraisable, so the hook collects it
    unraisable = []
    monkeypatch.setattr(sys, "unraisablehook", unraisable.append)
    qpath, vpath, cpath = (tmp_path / f"{x}.json" for x in "qvc")
    qpath.write_text(json.dumps({"coeffs": [[0.5, 0.0], [1.0, 0.0], [0.5, 0.0]]}))
    vpath.write_text(json.dumps({"nu": 1, "L": 2, "J": 3,
                                 "coeffs": [[1, 1, 0.25, 0.0], [-1, -1, 0.25, 0.0]]}))
    cpath.write_text(json.dumps({"q": {"family": "file", "path": str(qpath)}}))
    with warnings.catch_warnings():
        warnings.simplefilter("error", ResourceWarning)
        qc = build_q({"q": {"family": "file", "path": str(qpath)}}, 4)
        v = build_v({"v": {"family": "file", "path": str(vpath)}}, Lattice(1, 2, 3))
        rc = main(["spectrum", "--config", str(cpath), "--J", "8", "--L", "2",
                   "--outdir", str(tmp_path / "out")])
        gc.collect()
    assert unraisable == []
    assert list(qc[3:6]) == [0.5, 1.0, 0.5] and coeff(v, (-1,), -1) == 0.25
    assert rc == 0


def test_v_file_on_another_lattice_is_refused(tmp_path):
    # a v-file at (nu, L, J) = (1, 2, 3) does not drive a run at L = 4, J = 8:
    # build_v names both lattices instead of handing magnus a mismatched v
    vpath = tmp_path / "v.json"
    vpath.write_text(json.dumps({"nu": 1, "L": 2, "J": 3,
                                 "coeffs": [[1, 1, 0.25, 0.0], [-1, -1, 0.25, 0.0]]}))
    cfg = {"v": {"family": "file", "path": str(vpath)}}
    for lat in (Lattice(1, 4, 8), Lattice(1, 2, 8), Lattice(2, 2, 3)):
        with pytest.raises(ConfigError, match=r"\(1, 2, 3\).*" + re.escape(
                str((lat.nu, lat.L, lat.J)))):
            build_v(cfg, lat)
    assert coeff(build_v(cfg, Lattice(1, 2, 3)), (1,), 1) == 0.25


def test_run_experiment_spectrum_only(tmp_path):
    manifest = run_experiment(small_cfg(), stages=["spectrum"])
    assert manifest["stages"]["spectrum"]["pass"]
    files = emit_report(manifest, str(tmp_path))
    assert any(p.endswith("manifest.json") for p in files)
    assert any(p.endswith("spectrum.csv") for p in files)
    doc = json.loads((tmp_path / "manifest.json").read_text())
    assert doc["all_pass"]
    # the one constant a run reads, marked as fitted
    assert doc["constants"] == {"kam_smallness_C_s0": {"value": 4.2e-24, "kind": "fitted"}}


def test_run_experiment_dependencies_pulled():
    manifest = run_experiment(small_cfg(), stages=["kam"])
    for name in ("spectrum", "craigwayne", "magnus", "kam"):
        assert name in manifest["stages"], name
        assert manifest["stages"][name]["pass"], (name, manifest["stages"][name])


def test_run_experiment_v_zero_trivial():
    cfg = small_cfg(v={"family": "zero"})
    manifest = run_experiment(cfg, stages=["kam"])
    assert manifest["stages"]["kam"]["pass"]
    assert manifest["stages"]["magnus"]["pass"]


def test_determinism(tmp_path):
    cfg = small_cfg()
    m1 = run_experiment(cfg, stages=["magnus"])
    m2 = run_experiment(cfg, stages=["magnus"])
    f1 = emit_report(m1, str(tmp_path / "a"))
    f2 = emit_report(m2, str(tmp_path / "b"))
    c1 = (tmp_path / "a" / "magnus_sweep.csv").read_text()
    c2 = (tmp_path / "b" / "magnus_sweep.csv").read_text()
    assert c1 == c2
    j1 = json.loads((tmp_path / "a" / "manifest.json").read_text())
    j2 = json.loads((tmp_path / "b" / "manifest.json").read_text())
    for j in (j1, j2):              # wall times differ between runs
        for stage in j["stages"].values():
            stage.pop("seconds")
    assert j1["stages"] == j2["stages"]


def test_measure_stage_reports_omega0_rejections_after_kam():
    # the kam stage runs ad in this process before the measure stage forks its
    # pool, as `fastwave all` does; the measure stage reports the samples that
    # Omega_0 rejects at each gamma, in the manifest and in its csv
    cfg = small_cfg(samples=100, sweep_gamma=[1e-1, 1e-2])
    with time_limit(120):
        manifest = run_experiment(cfg, stages=["kam", "measure"])
    stage = manifest["stages"]["measure"]
    assert manifest["stages"]["kam"]["pass"] and "error" not in stage
    assert "single_set_exact_ok" not in stage
    rows = list(csv.DictReader(io.StringIO(stage["csv"]["measure_sweep.csv"])))
    by_gamma = stage["rejected_omega0_by_gamma"]
    assert list(by_gamma) == list(stage["m_r_by_gamma"]) == ["0.1", "0.01"]
    assert [int(r["rejected_omega0"]) for r in rows] == list(by_gamma.values())
    for row, n in zip(rows, by_gamma.values()):
        assert 0 <= n and int(row["rejected"]) + int(row["indeterminate"]) + n <= 100


def test_kam_stage_fails_without_smallness(monkeypatch):
    from fastwave import kam
    monkeypatch.setattr(kam, "smallness_check", lambda state: (False, 0.5))
    stage = run_experiment(small_cfg(), stages=["kam"])["stages"]["kam"]
    assert not stage["pass"] and not stage["smallness_ok"]
    assert stage["smallness_margin"] == 0.5


def test_stage_failure_skips_dependents(monkeypatch):
    cfg = small_cfg(q={"family": "cosine", "mean": 0.0, "amplitude": 2.0})
    # non-positive spectrum: the spectrum stage errors, dependents skip
    manifest = run_experiment(cfg, stages=["kam"])
    assert not manifest["stages"]["spectrum"]["pass"]
    assert manifest["stages"]["kam"].get("skipped")
    assert not manifest["all_pass"]


def test_cli_main_spectrum(tmp_path, capsys):
    rc = main(["spectrum", "--J", "8", "--L", "2", "--outdir", str(tmp_path)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "[PASS] spectrum" in out
    assert (tmp_path / "manifest.json").exists()


def test_cli_rejects_alpha_one(tmp_path):
    with pytest.raises(ConfigError):
        run_experiment(small_cfg(alpha=1.0), stages=["spectrum"])


def test_golden_omega_in_annulus():
    for nu in (1, 2, 3):
        w = golden_omega(1000.0, nu)
        assert 1000.0 <= np.linalg.norm(w) <= 2000.0
