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
    DEFAULTS, ConfigError, build_q, build_v, golden_omega, main, named_config,
    run_experiment, emit_report, validate_config,
)
from fastwave.harmonics import Lattice
from fastwave.opmatrix import blas_threads
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


@pytest.mark.parametrize("k", [0, 9])
def test_build_q_cosine_wavenumber_outside_1_to_J_is_refused(k):
    # k = J + 1 would index past the box, k = 0 would overwrite the mean
    with pytest.raises(ConfigError, match="wavenumber"):
        build_q({"q": {"family": "cosine", "mean": 1.0, "wavenumber": k}}, 8)


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


def test_v_file_rows_outside_the_box_are_refused(tmp_path):
    # on a (nu, L, J) = (1, 2, 3) v-file the mode (l, j) = (-3, 0) would wrap
    # to l = +2 and (0, -4) to j = +3, a row of fewer than nu + 3 entries
    # would write a whole slice, and (1.5, 0.7) would be truncated to (1, 0);
    # build_v names the row instead
    vpath = tmp_path / "v.json"
    cfg = {"v": {"family": "file", "path": str(vpath)}}
    for row in ([-3, 0, 0.25, 0.0], [0, -4, 0.25, 0.0], [1, 0.25, 0.0], [0.25, 0.0],
                [1, 1, 1, 0.25, 0.0], [1.5, 0.7, 0.25, 0.0]):
        vpath.write_text(json.dumps({"nu": 1, "L": 2, "J": 3,
                                     "coeffs": [[1, 1, 0.25, 0.0], row]}))
        with pytest.raises(ValueError, match=re.escape(f"coefficient row {row}")):
            build_v(cfg, Lattice(1, 2, 3))


def test_q_file_of_even_length_is_refused(tmp_path):
    # a centred list j = -K..K has 2K + 1 entries; an even list would lose
    # its last coefficient without a word
    qpath = tmp_path / "q.json"
    qpath.write_text(json.dumps({"coeffs": [[0.5, 0.0], [1.0, 0.0], [0.5, 0.0], [0.1, 0.0]]}))
    with pytest.raises(ConfigError, match="4 coefficients"):
        build_q({"q": {"family": "file", "path": str(qpath)}}, 3)


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
    # every OpenBLAS copy by its basename, on the one thread the import set
    assert doc["blas_threads"] == blas_threads()
    assert set(doc["blas_threads"].values()) <= {1}


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


def test_craigwayne_stage_certifies_blocks_when_n_min_fits():
    # the demo's q has n_min = 95; at J = 196 the blocks 95..98 are admissible
    # and each of their LS eigenpairs is one certificate row
    manifest = run_experiment(dict(named_config("demo"), J=196), stages=["craigwayne"])
    st = manifest["stages"]["craigwayne"]
    assert st["pass"] and st["ls_dense_agreement"]
    assert (st["admissible_n_min"], st["certified_blocks"]) == (95, 4)
    rows = list(csv.reader(io.StringIO(st["csv"]["decay_certificates.csv"])))
    assert [(int(n), verdict) for n, _, _, verdict in rows[1:]] == [
        (n, "PASS") for n in (95, 95, 96, 96, 97, 97, 98, 98)]


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


def test_measure_stage_measures_the_runs_v_cut_to_its_box(monkeypatch):
    # paper-toy's smooth-random v on a run box (6, 14) beyond the measure box
    # (4, 12): the pipeline receives the run's own q and v, cut
    from fastwave import melnikov
    cfg = named_config("paper-toy")
    cfg.update({"L": 6, "J": 14, "samples": 100, "sweep_gamma": [1e-2]})
    seen, real = [], melnikov.measure_pipeline

    def spy(qc, v, params, M):
        seen.append((qc, v))
        return real(qc, v, params, M)

    monkeypatch.setattr(melnikov, "measure_pipeline", spy)
    with time_limit(120):
        stage = run_experiment(cfg, stages=["measure"])["stages"]["measure"]
    assert "error" not in stage
    assert stage["v_family"] == "smooth-random"
    assert stage["measure_box"] == {"L": 4, "J": 12}
    [(qc, v)] = seen
    run_v = build_v(cfg, Lattice(1, 6, 14))
    assert v.lattice == Lattice(1, 4, 12)
    assert np.max(np.abs(run_v.coeffs)) > 0.0
    for ell in range(-4, 5):
        for j in range(-12, 13):
            assert coeff(v, (ell,), j) == coeff(run_v, (ell,), j)
    assert np.array_equal(qc, build_q(cfg, 14)[2:-2])


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
    rc = main(["spectrum", "--J", "8", "--L", "2", "--p-max", "2",
               "--outdir", str(tmp_path)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "[PASS] spectrum" in out
    assert json.loads((tmp_path / "manifest.json").read_text())["config"]["p_max"] == 2


def test_cli_main_sets_every_scalar_flag(tmp_path):
    # a valid value other than the default for each flag; nu = 2 needs
    # tau > nu - 1 + alpha + tau0 / alpha = 4.1
    values = {"nu": 2, "L": 2, "J": 6, "M": 500.0, "gamma": 0.2, "gamma0": 0.3,
              "tau": 4.5, "tau0": 1.5, "alpha": 0.6, "N0": 3.0, "seed": 3,
              "samples": 50, "p_max": 2}
    assert all(DEFAULTS[key] != val for key, val in values.items())
    argv = ["spectrum", "--outdir", str(tmp_path)]
    for key, val in values.items():
        argv += ["--" + key.replace("_", "-"), str(val)]
    assert main(argv) == 0
    config = json.loads((tmp_path / "manifest.json").read_text())["config"]
    assert {key: config[key] for key in values} == values


def _not_json(name):
    raise ValueError(f"{name} is not JSON")


def test_manifest_is_strict_json(tmp_path):
    # the demo's kam run reaches the delta floor after two steps, so its chi
    # is NaN: the manifest writes null and keeps the reason
    main(["kam", "--preset", "demo", "--outdir", str(tmp_path / "demo")])
    text = (tmp_path / "demo" / "manifest.json").read_text()
    kam = json.loads(text, parse_constant=_not_json)["stages"]["kam"]
    assert kam["measured_chi"] is None and "log-decrement" in kam["chi_reason"]
    # an infinite margin is null too, and numpy integers stay integers
    manifest = {"stages": {"kam": {"smallness_margin": float("inf"),
                                   "count": np.int64(3), "eps": np.array([0.5, np.nan])}}}
    emit_report(manifest, str(tmp_path / "synthetic"))
    text = (tmp_path / "synthetic" / "manifest.json").read_text()
    assert json.loads(text, parse_constant=_not_json)["stages"]["kam"] == {
        "smallness_margin": None, "count": 3, "eps": [0.5, None]}
    assert '"count": 3,' in text


def test_cli_rejects_alpha_one(tmp_path):
    with pytest.raises(ConfigError):
        run_experiment(small_cfg(alpha=1.0), stages=["spectrum"])


def test_golden_omega_in_annulus():
    for nu in (1, 2, 3):
        w = golden_omega(1000.0, nu)
        assert 1000.0 <= np.linalg.norm(w) <= 2000.0
