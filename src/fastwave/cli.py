"""Experiment orchestration: config, pipeline wiring, result emission.

Stages run in dependency order (spectrum -> craigwayne -> psdo-audit ->
magnus -> kam -> measure -> evolve); each records a PASS/FAIL verdict with
diagnostics into the run manifest, and a stage failure skips its dependents.
Identical config + seed reproduces identical outputs.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
import time

import numpy as np

from . import __version__
from .harmonics import Lattice, TorusFunction, recentre
from .opmatrix import blas_threads


class ConfigError(ValueError):
    pass


DEFAULTS = {
    "nu": 1, "L": 8, "J": 16,
    "q": {"family": "cosine", "mean": 1.0, "amplitude": 1.0},
    "v": {"family": "cosine-product", "amplitude": 1.0},
    "M": 1e3, "gamma": 0.5, "gamma0": None, "tau": 2.6, "tau0": 1.0,
    "alpha": 0.5, "N0": 2.1, "p_max": 5,
    "sweep_M": [1e2, 1e3, 1e4], "sweep_gamma": [1e-2, 1e-3, 1e-4],
    "samples": 2000, "seed": 7, "outdir": "runs/out",
    "evolve": {"T_periods": 200, "r": 1.0},
    "S": None,
}


def named_config(name: str) -> dict:
    """Bundled experiment presets."""
    if name == "demo":
        # the quick full-pipeline instance: v = cos(phi) cos(x)
        return dict(DEFAULTS)
    if name == "paper-toy":
        # broad-spectrum driving whose remainder tail tracks the N_p schedule
        cfg = dict(DEFAULTS)
        cfg.update({
            "L": 64, "J": 16,
            "v": {"family": "smooth-random", "ell_decay": 5.0, "j_decay": 6.0,
                  "ell_compensated": True, "seed": 42, "scale": 1.0},
            "N0": 2.1, "gamma": 0.5, "p_max": 5,
        })
        return cfg
    if name == "measure":
        cfg = dict(DEFAULTS)
        cfg.update({"L": 4, "J": 12, "samples": 2000})
        return cfg
    raise ConfigError(f"unknown preset {name!r}")


def validate_config(cfg: dict) -> dict:
    from .kam import tau_floor
    out = dict(DEFAULTS)
    out.update(cfg)
    if not (0.0 < out["alpha"] < 1.0):
        raise ConfigError("alpha must lie in (0, 1); alpha = 1 breaks the balance")
    nu = int(out["nu"])
    if not out["tau0"] > nu - 1:
        raise ConfigError(f"tau0 must exceed nu-1 = {nu - 1} for Omega_0 to have large measure")
    need = tau_floor(nu, out["alpha"], out["tau0"])
    if not out["tau"] > need:
        raise ConfigError(f"tau must exceed nu-1+alpha+tau0/alpha = {need:.3f}")
    if out["gamma0"] is None:
        out["gamma0"] = out["gamma"] ** (out["alpha"] / 4.0)
    for key in ("nu", "L", "J"):
        if int(out[key]) < 1:
            raise ConfigError(f"{key} must be a positive integer")
    # regularity bookkeeping: sigma* proxy = 2 tau0 + 1 (generator loss)
    out["sigma_star_proxy"] = 2 * out["tau0"] + 1.0
    s0 = (nu + 1) // 2 + 2
    if out["S"] is not None and out["S"] < s0 + out["sigma_star_proxy"]:
        raise ConfigError("declared regularity S below s0 + sigma*")
    return out


def build_q(cfg: dict, J: int) -> np.ndarray:
    spec = cfg["q"]
    c = np.zeros(2 * J + 1, dtype=complex)
    fam = spec["family"]
    if fam == "constant":
        c[J] = spec["value"]
    elif fam == "cosine":
        k = int(spec.get("wavenumber", 1))
        if not 1 <= k <= J:
            raise ConfigError(f"q wavenumber {k} lies outside 1..J = 1..{J}")
        c[J] = spec.get("mean", 0.0)
        c[J + k] = c[J - k] = spec.get("amplitude", 1.0) / 2.0
    elif fam == "smooth-random":
        rng = np.random.default_rng(spec.get("seed", 0))
        js = np.abs(np.arange(-J, J + 1)).astype(float)
        raw = rng.standard_normal(2 * J + 1) + 1j * rng.standard_normal(2 * J + 1)
        c = raw * np.maximum(1.0, js) ** (-spec.get("decay", 4.0))
        c = 0.5 * (c + np.conj(c[::-1]))
        c *= spec.get("scale", 1.0) / max(1e-300, np.max(np.abs(c)))
        c[J] += spec.get("mean", 1.0)
    elif fam == "file":
        with open(spec["path"]) as fh:
            data = json.load(fh)
        arr = np.asarray([complex(re, im) for re, im in data["coeffs"]])
        if len(arr) % 2 == 0:
            raise ConfigError(f"q file {spec['path']} has {len(arr)} coefficients; a "
                              "centred list j = -K..K has an odd number 2K + 1")
        c = recentre(arr, c.shape)
    else:
        raise ConfigError(f"unknown q family {fam!r}")
    return c


def build_v(cfg: dict, lattice: Lattice) -> TorusFunction:
    spec = cfg["v"]
    fam = spec["family"]
    if fam == "zero":
        return TorusFunction.zero(lattice)
    if fam == "cosine-product":
        a = spec.get("amplitude", 1.0) / 4.0
        modes = {}
        for se in (1, -1):
            for sj in (1, -1):
                modes[(se,) + (0,) * (lattice.nu - 1) + (sj,)] = a
        return TorusFunction.from_modes(lattice, modes)
    if fam == "smooth-random":
        rng = np.random.default_rng(spec.get("seed", 42))
        ells = np.abs(np.arange(-lattice.L, lattice.L + 1)).astype(float)
        js = np.abs(np.arange(-lattice.J, lattice.J + 1)).astype(float)
        prof_l = np.maximum(1.0, ells) ** (-spec.get("ell_decay", 5.0))
        if spec.get("ell_compensated", False):
            prof_l = prof_l * (ells / np.maximum(1.0, ells))
        prof_j = np.maximum(1.0, js) ** (-spec.get("j_decay", 6.0))
        prof = prof_l
        for _ in range(lattice.nu - 1):
            prof = prof[..., None] * prof_l
        prof = prof[..., None] * prof_j
        raw = rng.standard_normal(lattice.shape) + 1j * rng.standard_normal(lattice.shape)
        v = TorusFunction(lattice, raw * prof).symmetrized()
        c = np.array(v.coeffs)
        c[(lattice.L,) * lattice.nu] = 0.0         # zero angle average
        v = TorusFunction(lattice, c).symmetrized()
        return v * (spec.get("scale", 1.0) / max(1e-300, np.max(np.abs(v.coeffs))))
    if fam == "file":
        with open(spec["path"]) as fh:
            v = TorusFunction.from_json_dict(json.load(fh))
        file_box, run_box = ((lat.nu, lat.L, lat.J) for lat in (v.lattice, lattice))
        if file_box != run_box:
            raise ConfigError(f"v file {spec['path']} is on the lattice (nu, L, J) = "
                              f"{file_box}, the run's is {run_box}")
        return v
    raise ConfigError(f"unknown v family {fam!r}")


def golden_omega(M: float, nu: int) -> np.ndarray:
    if nu == 1:
        return np.array([1.5 * M])
    g = (1 + math.sqrt(5)) / 2
    vec = np.array([g ** k for k in range(nu)])
    return 1.5 * M * vec / np.linalg.norm(vec)


# -- stages -----------------------------------------------------------------------


def _csv(rows) -> str:
    """The rows as the text of a CSV file."""
    buf = io.StringIO()
    csv.writer(buf).writerows(rows)
    return buf.getvalue()


def stage_spectrum(ctx: dict) -> dict:
    from .schrodinger import assemble_lq, decompose_eigenvalues, eigensolve_blocks
    cfg = ctx["config"]
    J = int(cfg["J"])
    qc = build_q(cfg, J)
    Mq = assemble_lq(qc, J)
    sd = eigensolve_blocks(Mq, q=qc)
    ortho = float(np.max(np.abs(sd.psi.conj().T @ sd.psi - np.eye(2 * J + 1))))
    q_bar, _, tail = decompose_eigenvalues(sd)
    ctx["qc"], ctx["sd"] = qc, sd
    ok = ortho <= 1e-10 and sd.positive and np.nanmax(np.abs(sd.c)) <= sd.m_sq + 1e-12
    return {"pass": bool(ok), "orthonormality_defect": ortho,
            "q_bar": q_bar, "m_sq": sd.m_sq, "positive": sd.positive,
            "d_tail_partial_sums": tail,
            "csv": {"spectrum.csv": sd.to_csv()}}


def stage_craigwayne(ctx: dict) -> dict:
    from .craig_wayne import (build_basis_matrix, ls_certificates, tilde_C,
                              x_sobolev_norm)
    sd, qc = ctx["sd"], ctx["qc"]
    J = sd.J
    s = 4.0
    basis = build_basis_matrix(sd)
    ctx["basis"] = basis
    unit = basis.unitarity_defect()
    qn = x_sobolev_norm(qc, s)
    n_min = int(math.ceil(2.0 * tilde_C(s) * qn))
    # the blocks n >= n_min of the admissible regime, up to J/2; none when
    # n_min > J/2, and the stage then passes on unitarity alone
    blocks = range(max(1, n_min), J // 2 + 1)
    certs = ls_certificates(blocks, qc, s, sd)
    rows = [("n", "s", "worst_ratio", "pass")] + [
        (n, s, f"{ratio:.6f}", "PASS" if ok else "FAIL") for n, ratio, ok, _, _ in certs]
    all_ok = unit <= 1e-10 and all(ok for _, _, ok, _, _ in certs)
    ls_agree = all(gap <= 1e-8 and res <= 1e-8 for *_, gap, res in certs)
    return {"pass": bool(all_ok and ls_agree), "unitarity_defect": unit,
            "admissible_n_min": n_min, "certified_blocks": len(blocks),
            "ls_dense_agreement": bool(ls_agree),
            "M_norm_table": basis.norm_table([2.0, 4.0]),
            "csv": {"decay_certificates.csv": _csv(rows)}}


def stage_psdo_audit(ctx: dict) -> dict:
    from .psdo import (ContourSpec, EllipticSymbol, Symbol, complex_power,
                       entry_decay_exponent, quantize, resolvent_parametrix)
    from .schrodinger import assemble_lq, eigensolve_blocks, spectral_power
    cfg = ctx["config"]
    J = 16                                    # fixed audit scale
    qc = build_q(cfg, J)
    sd = eigensolve_blocks(assemble_lq(qc, J), q=qc)
    rho = 0.45 * float(np.min(sd.mu_sq))
    cont = ContourSpec(rho=rho, R=rho * math.exp(170.0), n_quad=280)
    ell = EllipticSymbol.xi2_plus_q(J, qc)
    out = {}
    # parametrix residual decay
    shifted = ell.full_symbol() + Symbol.constant(J, 1.0)
    OpA = quantize(shifted)
    bN = resolvent_parametrix(ell, -1.0, N=3)
    R = quantize(bN) @ OpA - np.eye(2 * J + 1)
    expo, _ = entry_decay_exponent(R)
    out["parametrix_N3_exponent"] = expo
    # spectral agreement of the symbol sqrt on mid frequencies
    B = complex_power(ell, 0.5, N=4, contour=cont, compose_N=4)
    E = np.abs(quantize(B) - spectral_power(sd, 0.5))
    window = [max(np.max(E[:, J + j]), np.max(E[:, J - j]))
              for j in range(J // 4, J // 2 + 1)]
    out["sqrt_window_error"] = float(np.max(window))
    # smoke audit at J = 16; the strict J = 64 check lives in acceptance
    ok = abs(expo + 3.0) < 0.9 and out["sqrt_window_error"] < 2e-2
    out["pass"] = bool(ok)
    return out


def stage_magnus(ctx: dict) -> dict:
    from .magnus import (adjoint_chain_check, homological_residual,
                         magnus_transform)
    from .opmatrix import s_decay_norm
    cfg = ctx["config"]
    lat = Lattice(int(cfg["nu"]), int(cfg["L"]), int(cfg["J"]))
    ctx["lattice"] = lat
    v = build_v(cfg, lat)
    ctx["v"] = v
    sd, qc = ctx["sd"], ctx["qc"]
    rows = [("M", "delta_d_s3", "delta_o_s3")]
    norms_d, norms_o, outs = [], [], {}
    for M in cfg["sweep_M"]:
        omega = golden_omega(M, lat.nu)
        outs[M] = magnus_transform(qc, v, omega, M, cfg["gamma0"], cfg["tau0"], sd)
        nd, no = (s_decay_norm(V, 3.0) for V in outs[M].V)
        norms_d.append(nd)
        norms_o.append(no)
        rows.append((M, nd, no))
    M0 = cfg["M"]
    # the sweep's transform at the run's own M when the sweep has it
    out = outs[M0] if M0 in outs else magnus_transform(
        qc, v, golden_omega(M0, lat.nu), M0, cfg["gamma0"], cfg["tau0"], sd)
    ctx["magnus_out"] = out
    defects = out.structure_defects()
    res = homological_residual(out)
    chain = adjoint_chain_check(out)
    slope_d = float(np.polyfit(np.log(cfg["sweep_M"]), np.log(norms_d), 1)[0]) \
        if min(norms_d) > 0 else float("nan")
    scale = max(out.Y_mat.norm_max(), 1e-300)
    ok = (max(defects.values()) <= 1e-10 * max(1.0, scale)
          and res <= 1e-8 * max(1.0, scale)
          and chain["ad3"] <= 1e-10 * chain["scale"] + 1e-15
          and (math.isnan(slope_d) or abs(slope_d + 1.0) <= 0.1))
    return {"pass": bool(ok), "structure_defects": defects,
            "homological_residual": res, "sigma4_ad3": chain["ad3"],
            "M_sweep_slope_Vd": slope_d,
            "csv": {"magnus_sweep.csv": _csv(rows)}}


def stage_kam(ctx: dict) -> dict:
    from .kam import (KamParameters, _log_decrements, final_spectrum, init_state,
                      kam_iterate, measured_chi, smallness_check)
    cfg = ctx["config"]
    params = KamParameters(tau=cfg["tau"], gamma=cfg["gamma"],
                           alpha=cfg["alpha"], N0=cfg["N0"],
                           tau0=cfg["tau0"], gamma0=cfg["gamma0"])
    state = init_state(ctx["magnus_out"], ctx["sd"], ctx["basis"], params,
                       ctx["lattice"])
    ok_small, margin = smallness_check(state)
    # the evolve stage's Floquet frame takes the generators of the first steps
    p_max = int(cfg["p_max"])
    ctx["kam_frame"] = kam_iterate(state, p_max=min(3, p_max), collect_generators=True)
    final, _ = kam_iterate(ctx["kam_frame"][0], p_max=p_max)
    rows = [("p", "N_p", "delta_s0", "delta_s0_beta", "X_norm", "H0_defect")]
    for r in final.history:
        rows.append((r["p"], r["N_p"], r["delta_s0"], r["delta_s0_beta"],
                     r["X_norm"], r["H0_selfadjoint_defect"]))
    spec, weighted_sup = final_spectrum(final)
    srows = [("n", "lam_minus", "lam_plus", "eps_minus", "eps_plus")]
    for n in sorted(spec):
        srows.append((n,) + spec[n])
    ds = [r["delta_s0"] for r in final.history]
    decreasing = all(b < a for a, b in zip(ds, ds[1:]) if a > 1e-15)
    sa_ok = all(r["H0_selfadjoint_defect"] <= 1e-12 for r in final.history)
    # the rate fit needs two positive log-decrements; a run that reaches the
    # delta floor early has fewer, and chi is NaN with the count as its reason
    chi = measured_chi(final.history)
    n_dec = len(_log_decrements(final.history)[0])
    chi_reason = None if math.isfinite(chi) else (
        f"{n_dec} positive log-decrement(s) of delta_s0 after p={final.p}, 2 needed")
    return {"pass": bool(decreasing and sa_ok and ok_small), "smallness_ok": bool(ok_small),
            "smallness_margin": margin, "measured_chi": chi, "chi_reason": chi_reason,
            "weighted_eps_sup": weighted_sup,
            "csv": {"kam_history.csv": _csv(rows),
                    "final_spectrum.csv": _csv(srows)}}


def stage_measure(ctx: dict) -> dict:
    from .kam import KamParameters
    from .melnikov import estimate_measure, fitted_gamma_exponent, measure_pipeline
    cfg = ctx["config"]
    nu, L, J = int(cfg["nu"]), int(cfg["L"]), int(cfg["J"])
    lat = Lattice(nu, min(L, 4), min(J, 12))       # the run's q and v, cut to this box
    qc = recentre(build_q(cfg, J), (2 * lat.J + 1,))
    v = TorusFunction(lat, recentre(build_v(cfg, Lattice(nu, L, J)).coeffs, lat.shape))
    M = float(cfg["M"])
    rows = [("gamma", "m_r", "ci_lo", "ci_hi", "rejected", "indeterminate", "rejected_omega0")]
    mrs, indeterminate, rejected_omega0 = [], {}, {}
    for gamma in cfg["sweep_gamma"]:
        params = KamParameters(tau=cfg["tau"], gamma=gamma, alpha=cfg["alpha"],
                               N0=cfg["N0"], tau0=cfg["tau0"],
                               gamma0=gamma ** (cfg["alpha"] / 4.0))
        pipeline = measure_pipeline(qc, v, params, M)
        rep = estimate_measure(pipeline, params, M, int(cfg["samples"]),
                               rng_seed=int(cfg["seed"]), nu=nu, L_check=lat.L)
        lo, hi = rep.confidence_interval()
        rows.append((gamma, rep.m_r, lo, hi, rep.rejected_infty,
                     rep.indeterminate, rep.rejected_omega0))
        mrs.append(rep.m_r)
        indeterminate[str(gamma)] = dict(rep.indeterminate_by_type)
        rejected_omega0[str(gamma)] = rep.rejected_omega0
    expo = fitted_gamma_exponent(cfg["sweep_gamma"], mrs)
    monotone = all(a >= b for a, b in zip(mrs, mrs[1:]))
    ok = monotone and (math.isnan(expo) or expo >= 0.4)
    return {"pass": bool(ok), "m_r_by_gamma": dict(zip(map(str, cfg["sweep_gamma"]), mrs)),
            "rejected_omega0_by_gamma": rejected_omega0,
            "indeterminate_by_type": indeterminate, "v_family": cfg["v"]["family"],
            "fitted_exponent": expo, "measure_box": {"L": lat.L, "J": lat.J},
            "csv": {"measure_sweep.csv": _csv(rows)}}


def stage_evolve(ctx: dict) -> dict:
    from .craig_wayne import change_basis
    from .evolution import (FloquetFrame, band_width, floquet_residual,
                            integrate, pair_state, sobolev_trace)
    cfg = ctx["config"]
    sd = ctx["sd"]
    lat = ctx["lattice"]
    M = float(cfg["M"])
    omega = golden_omega(M, lat.nu)
    final, gens = ctx["kam_frame"]
    frame = FloquetFrame(change_basis(ctx["magnus_out"].Y_mat, ctx["basis"]), gens, final.H0)
    W = change_basis(ctx["magnus_out"].W_mat, ctx["basis"])
    rng = np.random.default_rng(int(cfg["seed"]))
    pe = rng.standard_normal(2 * sd.J + 1) + 1j * rng.standard_normal(2 * sd.J + 1)
    state = pair_state(pe, sd)
    T = 2 * math.pi * cfg["evolve"]["T_periods"] / float(np.linalg.norm(omega))
    dt = 0.09 / max(float(np.linalg.norm(omega)), float(np.nanmax(sd.lam)))
    traj = integrate(sd, W, omega, state, T, dt,
                     store_every=max(1, int(round(T / dt)) // 400))
    r = cfg["evolve"]["r"]
    sup, ratios = sobolev_trace(traj, r)
    width = band_width(ratios)
    res = floquet_residual(frame, sd, W, omega, [(min(0.2, T), 0.0)], dt, n_probes=2)
    delta_final = final.history[-1]["delta_s0"]
    budget = 10.0 * (delta_final + dt ** 2 * min(0.2, T))
    rows = [("t", "ratio_H%g" % r)] + list(zip(traj.times, ratios))
    plot = "\n".join(f"{t} {x}" for t, x in zip(traj.times, ratios))
    # the verdict takes max(budget, 1e-6): below the floor the floor decides,
    # and the reported budget is not what the residual is judged against
    ok = res <= max(budget, 1e-6) and width < 0.5
    return {"pass": bool(ok), "floquet_residual": res, "floquet_budget": budget,
            "band_width": width, "sup_ratio": sup,
            "csv": {"sobolev_trace.csv": _csv(rows)},
            "plot": {"sobolev_trace.dat": plot}}


STAGES = [
    ("spectrum", stage_spectrum, []),
    ("craigwayne", stage_craigwayne, ["spectrum"]),
    ("psdo-audit", stage_psdo_audit, ["spectrum"]),
    ("magnus", stage_magnus, ["spectrum"]),
    ("kam", stage_kam, ["spectrum", "craigwayne", "magnus"]),
    ("measure", stage_measure, []),
    ("evolve", stage_evolve, ["spectrum", "craigwayne", "magnus", "kam"]),
]


def run_experiment(cfg: dict, stages) -> dict:
    """Execute the requested stages (None: all of them); returns the run manifest."""
    cfg = validate_config(cfg)
    needed = set(stages) if stages else {name for name, _, _ in STAGES}
    unknown = needed - {name for name, _, _ in STAGES}
    if unknown:
        raise ConfigError(f"unknown stage {sorted(unknown)[0]!r}")
    # STAGES lists every stage after its dependencies: one reverse pass pulls
    # them all in
    for name, _, deps in reversed(STAGES):
        if name in needed:
            needed.update(deps)
    from .kam import SMALLNESS_C_S0
    # the one constant a run reads that is neither derived nor an input
    manifest = {"version": __version__, "config": cfg,
                "constants": {"kam_smallness_C_s0": {"value": SMALLNESS_C_S0,
                                                     "kind": "fitted"}},
                # the thread count of each OpenBLAS copy; empty where none is known
                "blas_threads": blas_threads(),
                "stages": {}}
    ctx = {"config": cfg}
    failed = set()
    for name, fn, deps in STAGES:
        if name not in needed:
            continue
        if any(d in failed for d in deps):
            manifest["stages"][name] = {"pass": False, "skipped": True,
                                        "reason": "dependency failed"}
            failed.add(name)
            continue
        t0 = time.time()
        try:
            result = fn(ctx)
        except Exception as exc:          # stage failure: record, skip dependents
            manifest["stages"][name] = {"pass": False,
                                        "error": f"{type(exc).__name__}: {exc}"}
            failed.add(name)
            continue
        result["seconds"] = round(time.time() - t0, 3)
        manifest["stages"][name] = result
        if not result.get("pass", False):
            failed.add(name)
    manifest["all_pass"] = all(s.get("pass", False)
                               for s in manifest["stages"].values())
    return manifest


def emit_report(manifest: dict, outdir: str) -> list:
    """Write the JSON manifest plus per-stage CSV and plot-data files."""
    os.makedirs(outdir, exist_ok=True)
    written = []
    clean = {}
    for name, st in manifest["stages"].items():
        entry = {k: v for k, v in st.items() if k not in ("csv", "plot")}
        clean[name] = entry
        for fname, text in [*st.get("csv", {}).items(), *st.get("plot", {}).items()]:
            path = os.path.join(outdir, fname)
            with open(path, "w") as fh:
                fh.write(text)
            written.append(path)
    doc = dict(manifest)
    doc["stages"] = clean
    path = os.path.join(outdir, "manifest.json")
    with open(path, "w") as fh:
        json.dump(_strict_json(doc), fh, indent=2, sort_keys=True, allow_nan=False)
    written.append(path)
    return written


def _strict_json(x):
    """x with numpy values as Python ones and non-finite floats as None (null)."""
    if isinstance(x, dict):
        return {k: _strict_json(v) for k, v in x.items()}
    if isinstance(x, (list, tuple, np.ndarray)):
        return [_strict_json(v) for v in x]
    if isinstance(x, np.integer):
        return int(x)
    if isinstance(x, (float, np.floating)):
        return float(x) if math.isfinite(x) else None
    return x


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="fastwave",
                                     description="KAM reducibility workbench")
    parser.add_argument("stage", choices=[n for n, _, _ in STAGES] + ["all"])
    parser.add_argument("--config", help="JSON config file")
    parser.add_argument("--preset", default=None,
                        choices=["demo", "paper-toy", "measure"])
    parser.add_argument("--outdir", default=None)
    scalar_flags = (("--nu", int), ("--L", int), ("--J", int), ("--M", float),
                    ("--gamma", float), ("--gamma0", float), ("--tau", float),
                    ("--tau0", float), ("--alpha", float), ("--N0", float),
                    ("--seed", int), ("--samples", int), ("--p-max", int))
    for flag, typ in scalar_flags:
        parser.add_argument(flag, type=typ, default=None)
    parser.add_argument("--sweep-M", default=None,
                        help="comma-separated M values, e.g. 1e2,1e3,1e4")
    parser.add_argument("--sweep-gamma", default=None)
    parser.add_argument("--q-file", default=None)
    parser.add_argument("--v-file", default=None)
    args = parser.parse_args(argv)

    cfg = named_config(args.preset) if args.preset else dict(DEFAULTS)
    if args.config:
        with open(args.config) as fh:
            cfg.update(json.load(fh))
    for flag, _ in scalar_flags:
        # the config key is argparse's destination: --p-max -> p_max
        key = flag[2:].replace("-", "_")
        val = getattr(args, key)
        if val is not None:
            cfg[key] = val
    if args.sweep_M:
        cfg["sweep_M"] = [float(x) for x in args.sweep_M.split(",")]
    if args.sweep_gamma:
        cfg["sweep_gamma"] = [float(x) for x in args.sweep_gamma.split(",")]
    if args.q_file:
        cfg["q"] = {"family": "file", "path": args.q_file}
    if args.v_file:
        cfg["v"] = {"family": "file", "path": args.v_file}
    if args.outdir:
        cfg["outdir"] = args.outdir

    stages = None if args.stage == "all" else [args.stage]
    manifest = run_experiment(cfg, stages)
    emit_report(manifest, cfg["outdir"])
    for name, st in manifest["stages"].items():
        verdict = "PASS" if st.get("pass") else ("SKIP" if st.get("skipped") else "FAIL")
        print(f"[{verdict}] {name}" + (f" ({st.get('seconds', 0)}s)"
                                       if "seconds" in st else ""))
    print(f"manifest: {os.path.join(cfg['outdir'], 'manifest.json')}")
    return 0 if manifest["all_pass"] else 1


if __name__ == "__main__":
    sys.exit(main())
