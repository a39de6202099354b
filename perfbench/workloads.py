"""The benchmark's workloads: set-up, the fixed work of one repetition, checks.

Each workload runs fastwave through its public entry points on inputs made
from the seed, and splits its work into ops.  An op fails when an error
escapes the public call or when its output fails the checks: against the
recorded reference values at the workload's default seed, against the
program's own gates at any other seed.

- measure-mc: `melnikov.estimate_measure` over gamma = 1e-2, 1e-3, 1e-4 at
  L=4, J=12, M=1e3 with the CLI's per-omega pipeline.  The seed draws the
  omega samples.  Many tiny operands share one spectrum, basis and v, so it
  exposes per-call Python overhead and reuse of omega-independent work; it
  is 89% of the demo's time when the measure stage runs.  Op: one gamma.
- paper-toy-kam: Magnus -> init_state -> kam_iterate(p_max=5) with norm
  tracking at L=64, J=16, M=1e3.  The seed draws the smooth-random v.  Few
  large operands and tracked norms: the opposite use of the same kam and
  opmatrix code.  Op: the KAM run.
- demo-pipeline: `cli.run_experiment` on the demo preset with every stage
  but measure (measure-mc covers it).  The only workload where psdo and
  evolution do real work.  The seed is the config seed, which draws the
  evolved initial state.  Op: one stage.
"""

from __future__ import annotations

import json
import math
import os

GAMMAS = (1e-2, 1e-3, 1e-4)
MEASURE_SAMPLES = 100          # the fewest that estimate_measure accepts
DEMO_STAGES = ["spectrum", "craigwayne", "psdo-audit", "magnus", "kam", "evolve"]
REFERENCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")

# key diagnostics of each demo stage checked against the reference; the
# round-off-sized defects are left to the stage's own pass verdict
DEMO_KEYS = {
    "spectrum": ("q_bar", "m_sq", "positive"),
    "craigwayne": ("admissible_n_min", "ls_dense_agreement"),
    "psdo-audit": ("parametrix_N3_exponent", "sqrt_window_error"),
    "magnus": ("M_sweep_slope_Vd",),
    "kam": ("smallness_ok", "smallness_margin", "measured_chi", "weighted_eps_sup"),
    "evolve": ("floquet_residual", "floquet_budget", "band_width", "sup_ratio"),
}
MEASURE_COUNTS = ("melnikov.samples", "melnikov.rejected_omega0",
                  "melnikov.rejected_infty", "melnikov.indeterminate",
                  "melnikov.kam_yield", "melnikov.explicit_triples")
DEMO_RTOL = 1e-9
KAM_RTOL = 1e-12


class Workload:
    name = ""
    default_seed = 0

    def __init__(self, seed: int, toy: bool = False):
        self.seed, self.toy = seed, toy

    def setup(self):
        """Imports, config, q, v, the spectrum and the Craig-Wayne basis."""
        from fastwave import cli
        from fastwave.craig_wayne import build_basis_matrix
        from fastwave.harmonics import Lattice
        from fastwave.schrodinger import assemble_lq, eigensolve_blocks
        self.cfg = cfg = cli.validate_config(self.config())
        J = int(cfg["J"])
        self.lattice = Lattice(int(cfg["nu"]), int(cfg["L"]), J)
        self.qc = cli.build_q(cfg, J)
        self.v = cli.build_v(cfg, self.lattice)
        self.sd = eigensolve_blocks(assemble_lq(self.qc, J), q=self.qc)
        self.basis = build_basis_matrix(self.sd)

    def sizes(self) -> dict:
        cfg = self.config()
        return {"L": int(cfg["L"]), "J": int(cfg["J"]), "M": float(cfg["M"])}

    def run(self, tracer=None) -> list:
        """Outputs of the ops of one repetition: [(op name, output dict)]."""
        raise NotImplementedError

    def gate_failures(self, outputs) -> list:
        raise NotImplementedError

    def reference_failures(self, outputs, ref) -> list:
        raise NotImplementedError

    def layer_counts(self, outputs) -> dict:
        """Per-layer counts read from the outputs (the measure census)."""
        return dict.fromkeys(MEASURE_COUNTS, 0)

    def failures(self, outputs) -> list:
        """Messages of the ops that failed; at most one per op."""
        bad = {op: out["error"] for op, out in outputs if "error" in out}
        ref = None
        if self.seed == self.default_seed and not self.toy:
            with open(REFERENCE) as fh:
                ref = json.load(fh)[self.name]
        checks = (self.reference_failures(outputs, ref) if ref is not None
                  else self.gate_failures(outputs))
        for op, msg in checks:
            bad.setdefault(op, msg)
        return [f"{op}: {msg}" for op, msg in bad.items()]


def _call(op, fn):
    try:
        return op, fn()
    except Exception as exc:          # a failed op is counted, not fatal
        return op, {"error": f"{type(exc).__name__}: {exc}"}


def _rows_close(rows, ref_rows, rtol=KAM_RTOL):
    """Rows of numbers equal to `rtol` of the largest entry of the reference row.

    A final-spectrum row is (n, lam_minus, lam_plus, eps_minus, eps_plus); the
    drifts eps = lam - lam_ref are held to rtol of the eigenvalues.
    """
    return len(rows) == len(ref_rows) and all(
        len(row) == len(ref) and all(
            abs(a - b) <= rtol * max(abs(x) for x in ref) for a, b in zip(row, ref))
        for row, ref in zip(rows, ref_rows))


def _close(a, b, rtol):
    if isinstance(a, bool) or isinstance(b, bool) or isinstance(a, str):
        return a == b
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return abs(a - b) <= rtol * max(abs(a), abs(b))


class MeasureMC(Workload):
    name = "measure-mc"
    default_seed = 7

    def config(self):
        from fastwave.cli import named_config
        cfg = named_config("measure")
        cfg.update({"J": 4, "L": 1, "M": 1e2} if self.toy else {"J": 12, "L": 4})
        cfg["v"] = {"family": "cosine-product", "amplitude": 1.0}
        cfg["seed"] = self.seed
        return cfg

    def sizes(self):
        return dict(super().sizes(), samples=MEASURE_SAMPLES, gammas=list(GAMMAS))

    def setup(self):
        from fastwave.kam import KamParameters
        super().setup()
        cfg = self.cfg
        self.params = [KamParameters(tau=cfg["tau"], gamma=g, alpha=cfg["alpha"],
                                     N0=cfg["N0"], tau0=cfg["tau0"],
                                     gamma0=g ** (cfg["alpha"] / 4.0))
                       for g in GAMMAS]

    def _pipeline(self, params):
        from fastwave.kam import init_state, kam_iterate
        from fastwave.magnus import magnus_transform
        from fastwave.melnikov import eigen_table_from_state
        qc, v, sd, basis, lat = self.qc, self.v, self.sd, self.basis, self.lattice
        M = float(self.cfg["M"])

        def pipeline(omega):
            out = magnus_transform(qc, v, omega, M, params.gamma0, params.tau0, sd,
                                   with_symbols=False)
            st = init_state(out, sd, basis, params, lat, track_norms=False)
            fin, _ = kam_iterate(st, p_max=2, track_norms=False)
            return eigen_table_from_state(fin, sd.q_bar)
        return pipeline

    def run(self, tracer=None):
        from fastwave.melnikov import estimate_measure
        outputs = []
        for params in self.params:
            pipeline = self._pipeline(params)
            if tracer is not None:
                pipeline = tracer.wrap("melnikov.pipeline", pipeline)

            def op(params=params, pipeline=pipeline):
                rep = estimate_measure(pipeline, params, float(self.cfg["M"]),
                                       MEASURE_SAMPLES, rng_seed=self.seed,
                                       nu=self.lattice.nu, L_check=self.lattice.L)
                d = rep.to_json_dict()
                return {k: d[k] for k in ("n_samples", "rejected_omega0",
                                          "rejected_infty", "indeterminate",
                                          "pruning", "m_r")}
            outputs.append(_call(f"gamma={params.gamma:g}", op))
        return outputs

    def reference_failures(self, outputs, ref):
        return [(op, f"{out} != reference {ref[op]}")
                for op, out in outputs if "error" not in out and out != ref[op]]

    def gate_failures(self, outputs):
        bad, prev = [], None
        for op, out in outputs:
            if "error" in out:
                continue
            if out["indeterminate"]:
                bad.append((op, f"{out['indeterminate']} indeterminate samples"))
            elif prev is not None and out["m_r"] > prev:
                bad.append((op, f"m_r {out['m_r']} rises above {prev} as gamma falls"))
            prev = out["m_r"]
        return bad

    def layer_counts(self, outputs):
        reps = [out for _, out in outputs if "error" not in out]
        total = {k: sum(r[k] for r in reps) for k in
                 ("n_samples", "rejected_omega0", "rejected_infty", "indeterminate")}
        return {"melnikov.samples": total["n_samples"],
                "melnikov.rejected_omega0": total["rejected_omega0"],
                "melnikov.rejected_infty": total["rejected_infty"],
                "melnikov.indeterminate": total["indeterminate"],
                "melnikov.kam_yield": ((total["n_samples"] - total["rejected_omega0"])
                                       / max(1, total["n_samples"])),
                "melnikov.explicit_triples": sum(r["pruning"].get("explicit", 0)
                                                 for r in reps)}


class PaperToyKam(Workload):
    name = "paper-toy-kam"
    default_seed = 42

    def config(self):
        from fastwave.cli import named_config
        cfg = named_config("paper-toy")
        if self.toy:
            cfg.update({"L": 8, "J": 8, "p_max": 3})
        cfg["v"] = dict(cfg["v"], seed=self.seed)
        return cfg

    def sizes(self):
        return dict(super().sizes(), steps=int(self.config()["p_max"]))

    def run(self, tracer=None):
        from fastwave import cli
        from fastwave.kam import (KamParameters, final_spectrum, init_state,
                                  kam_iterate)
        from fastwave.magnus import magnus_transform
        cfg, lat = self.cfg, self.lattice
        p_max = int(cfg["p_max"])

        def op():
            M = float(cfg["M"])
            params = KamParameters(tau=cfg["tau"], gamma=cfg["gamma"],
                                   alpha=cfg["alpha"], N0=cfg["N0"],
                                   tau0=cfg["tau0"], gamma0=cfg["gamma0"], p_max=p_max)
            out = magnus_transform(self.qc, self.v, cli.golden_omega(M, lat.nu), M,
                                   cfg["gamma0"], cfg["tau0"], self.sd,
                                   with_symbols=False)
            state = init_state(out, self.sd, self.basis, params, lat)
            final, _ = kam_iterate(state, p_max=p_max)
            spec, _ = final_spectrum(final)
            return {"delta_s0": [r["delta_s0"] for r in final.history],
                    "H0_defect": max(r["H0_selfadjoint_defect"] for r in final.history),
                    "final_spectrum": [[n, *spec[n]] for n in sorted(spec)]}
        return [_call("kam", op)]

    def reference_failures(self, outputs, ref):
        bad = []
        for op, out in outputs:
            if "error" in out:
                continue
            want = ref[op]
            if not _rows_close([[d] for d in out["delta_s0"]],
                               [[d] for d in want["delta_s0"]]):
                bad.append((op, f"delta_s0 {out['delta_s0']} != {want['delta_s0']}"))
            elif not _rows_close(out["final_spectrum"], want["final_spectrum"]):
                bad.append((op, "final spectrum differs from the reference"))
        return bad

    def gate_failures(self, outputs):
        # the kam stage's gate: delta_s0 decreasing, H0 self-adjoint
        bad = []
        for op, out in outputs:
            if "error" in out:
                continue
            ds = out["delta_s0"]
            if not all(b < a for a, b in zip(ds, ds[1:]) if a > 1e-15):
                bad.append((op, f"delta_s0 not decreasing: {ds}"))
            elif out["H0_defect"] > 1e-12:
                bad.append((op, f"H0 self-adjoint defect {out['H0_defect']}"))
        return bad


class DemoPipeline(Workload):
    name = "demo-pipeline"
    default_seed = 7

    def config(self):
        from fastwave.cli import named_config
        cfg = named_config("demo")
        if self.toy:
            cfg.update({"L": 4, "J": 8, "sweep_M": [1e2, 1e3],
                        "evolve": {"T_periods": 20, "r": 1.0}})
        cfg["seed"] = self.seed
        return cfg

    def sizes(self):
        cfg = self.config()
        return dict(super().sizes(), stages=DEMO_STAGES,
                    evolve_periods=cfg["evolve"]["T_periods"])

    def run(self, tracer=None):
        # run_experiment builds its own q, v, spectrum and basis; the set-up
        # above times the same work as in the other workloads
        from fastwave.cli import run_experiment
        op, manifest = _call("run_experiment",
                             lambda: run_experiment(self.config(), DEMO_STAGES))
        if "error" in manifest:
            return [(stage, manifest) for stage in DEMO_STAGES]
        outputs = []
        for stage in DEMO_STAGES:
            st = manifest["stages"].get(stage, {"error": "stage did not run"})
            out = {"pass": bool(st.get("pass", False))}
            if "error" in st or st.get("skipped"):
                out["error"] = st.get("error", "skipped: " + str(st.get("reason")))
            out.update({k: _plain(st[k]) for k in DEMO_KEYS[stage] if k in st})
            outputs.append((stage, out))
        return outputs

    def reference_failures(self, outputs, ref):
        bad = self.gate_failures(outputs)
        for op, out in outputs:
            want = ref[op]
            for key in DEMO_KEYS[op]:
                if key not in out or not _close(out[key], want[key], DEMO_RTOL):
                    bad.append((op, f"{key} {out.get(key)} != reference {want[key]}"))
                    break
        return bad

    def gate_failures(self, outputs):
        return [(op, "stage verdict FAIL") for op, out in outputs if not out["pass"]]


def _plain(x):
    """A JSON-able Python scalar; numpy scalars become their Python value."""
    x = x.item() if hasattr(x, "item") else x
    return x if isinstance(x, (bool, int, float, str)) else str(x)


WORKLOADS = {w.name: w for w in (MeasureMC, PaperToyKam, DemoPipeline)}
