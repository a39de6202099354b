"""Spans around the public functions of fastwave's modules, for the traced run.

`Tracer.install` replaces every public module-level function of each layer
module with a wrapper that records a span (name, start, end, parent index).
The substitution is made on every module attribute bound to the original
function, so the names that modules import from each other (`kam.ad`,
`magnus.spectral_power`, `melnikov.diophantine_test`, ...) are traced as
well, and so are calls made through module globals inside a module.  Two
entry points need their own wrappers: `BlockOperator.__matmul__`, whose span
name records which side of the <=64-pair fork the call takes, and the
stage table `cli.STAGES`, which holds the stage functions directly.
`uninstall` restores every original.  Untraced runs never call `install`.

Spans stay in memory; `take` hands over the spans of one phase and
`summarize` turns them into per-layer metrics.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import statistics
import time

LAYERS = ("harmonics", "schrodinger", "craig_wayne", "psdo", "opmatrix",
          "magnus", "kam", "melnikov", "evolution", "cli")

NORMS = ("opmatrix.s_decay_norm", "opmatrix.pair_norm")
MATMUL = ("opmatrix.matmul.small", "opmatrix.matmul.grid")
LS_CERTIFY = tuple("craig_wayne." + f for f in (
    "ls_block_eigenpairs", "verify_localization", "eigen_residual",
    "solve_q_equation", "assemble_Sn", "apply_Tn", "x_sobolev_norm",
    "shifted_norm", "fit_exponential_decay"))
DEMO_STAGES = ("spectrum", "craigwayne", "psdo-audit", "magnus", "kam", "evolve")

# per-layer metric -> the span names whose self time it sums
SELF_SECONDS = {
    "schrodinger.eigensolve_s": ("schrodinger.eigensolve_blocks",),
    "craig_wayne.basis_s": ("craig_wayne.build_basis_matrix",),
    "craig_wayne.change_basis_s": ("craig_wayne.change_basis",),
    "craig_wayne.ls_certify_s": LS_CERTIFY,
    "magnus.transform_s": ("magnus.magnus_transform",),
    "magnus.diophantine_s": ("magnus.diophantine_test", "magnus.divisor_factors"),
    "kam.init_state_s": ("kam.init_state",),
    "kam.step_s": ("kam.kam_step",),
    "kam.solve_homological_s": ("kam.solve_homological",),
    "opmatrix.ad_s": ("opmatrix.ad",),
    "opmatrix.matmul_s": MATMUL,
    "opmatrix.norm_s": NORMS,
    "melnikov.estimate_measure_s": ("melnikov.estimate_measure",),
    "melnikov.omega_infty_s": ("melnikov.omega_infty_test",),
    "psdo.complex_power_s": ("psdo.complex_power",),
    "psdo.quantize_s": ("psdo.quantize",),
    "psdo.resolvent_parametrix_s": ("psdo.resolvent_parametrix",
                                    "psdo.resolvent_parametrix_at",
                                    "psdo.parametrix_layers_batch"),
    "evolution.integrate_s": ("evolution.integrate",),
    "evolution.floquet_residual_s": ("evolution.floquet_residual",),
}

# per-layer metric -> the span names whose calls it counts
CALLS = {
    "craig_wayne.change_basis_calls": ("craig_wayne.change_basis",),
    "magnus.transform_calls": ("magnus.magnus_transform",),
    "kam.steps": ("kam.kam_step",),
    "kam.solve_homological_calls": ("kam.solve_homological",),
    "opmatrix.ad_calls": ("opmatrix.ad",),
    "opmatrix.matmul_small_calls": ("opmatrix.matmul.small",),
    "opmatrix.matmul_grid_calls": ("opmatrix.matmul.grid",),
    "opmatrix.norm_calls": NORMS,
    "melnikov.omega_infty_calls": ("melnikov.omega_infty_test",),
    "psdo.complex_power_calls": ("psdo.complex_power",),
    "psdo.parametrix_layers_calls": ("psdo.parametrix_layers_batch",),
}


class Tracer:
    """Installs span wrappers and keeps the recorded spans in memory."""

    def __init__(self):
        self.spans = []            # [name, start, end, parent index or -1]
        self.strang_steps = 0
        self._stack = []
        self._undo = []

    def wrap(self, name, fn, name_of=None):
        """`fn` recording one span per call; `name_of(*args)` may pick the name."""
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name_of(*args) if name_of else name, time.perf_counter(), 0.0,
                   stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                stack.pop()
        return traced

    def install(self):
        mods = {name: importlib.import_module("fastwave." + name) for name in LAYERS}
        wrapped = {}
        for name, mod in mods.items():
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    wrapped[obj] = self.wrap(f"{name}.{attr}", obj)
        integrate = mods["evolution"].integrate
        wrapped[integrate] = self.wrap("evolution.integrate",
                                       self._count_strang_steps(integrate))
        for mod in mods.values():
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    self._set(mod, attr, wrapped[obj])

        block_op = mods["opmatrix"].BlockOperator

        def matmul_path(a, b):
            # the same fork as BlockOperator.__matmul__: dict loop up to 64 pairs
            return MATMUL[len(a.mats) * len(b.mats) > 64]
        self._set(block_op, "__matmul__",
                  self.wrap("", block_op.__matmul__, name_of=matmul_path))
        cli = mods["cli"]
        self._set(cli, "STAGES", [(stage, self.wrap("cli.stage." + stage, fn), deps)
                                  for stage, fn, deps in cli.STAGES])

    def _count_strang_steps(self, integrate):
        @functools.wraps(integrate)
        def counted(*args, **kwargs):
            traj = integrate(*args, **kwargs)
            self.strang_steps += int(round((traj.times[-1] - traj.times[0]) / traj.dt))
            return traj
        return counted

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def take(self):
        """The spans recorded since the last call, and the Strang step count."""
        if self._stack:
            raise RuntimeError("take() inside an open span")
        spans, steps = list(self.spans), self.strang_steps
        self.spans.clear()
        self.strang_steps = 0
        return spans, steps


def summarize(spans, strang_steps=0, wall_s=None):
    """Per-layer metrics of one phase.

    Times are self time (span duration minus the time of its child spans),
    except `cli.stage.*_s`, which is the whole stage, and
    `kam.norm_tracking_s`, which is the time of outermost norm spans that run
    under a kam span.  `inclusive` maps each span name to its total time.
    """
    n = len(spans)
    child = [0.0] * n
    under_kam = [False] * n
    under_norm = [False] * n
    for i, (name, start, end, parent) in enumerate(spans):
        if parent >= 0:
            pname = spans[parent][0]
            child[parent] += end - start
            under_kam[i] = under_kam[parent] or pname.startswith("kam.")
            under_norm[i] = under_norm[parent] or pname in NORMS
    self_s, calls, inclusive = {}, {}, {}
    norm_tracking = roots = 0.0
    for i, (name, start, end, parent) in enumerate(spans):
        dur = end - start
        self_s[name] = self_s.get(name, 0.0) + dur - child[i]
        calls[name] = calls.get(name, 0) + 1
        inclusive[name] = inclusive.get(name, 0.0) + dur
        if name in NORMS and under_kam[i] and not under_norm[i]:
            norm_tracking += dur
        if parent < 0:
            roots += dur
    out = {m: sum(self_s.get(s, 0.0) for s in names)
           for m, names in SELF_SECONDS.items()}
    out.update({m: sum(calls.get(s, 0) for s in names) for m, names in CALLS.items()})
    out["kam.norm_tracking_s"] = norm_tracking
    out["evolution.strang_steps"] = strang_steps
    for stage in DEMO_STAGES:
        out[f"cli.stage.{stage}_s"] = inclusive.get("cli.stage." + stage, 0.0)
    pipeline_ms = [1e3 * (e - s) for name, s, e, _ in spans if name == "melnikov.pipeline"]
    if len(pipeline_ms) >= 2:
        deciles = statistics.quantiles(pipeline_ms, n=10)
        out["melnikov.pipeline_ms_p50"] = statistics.median(pipeline_ms)
        out["melnikov.pipeline_ms_p90"] = deciles[8]
    else:
        out["melnikov.pipeline_ms_p50"] = out["melnikov.pipeline_ms_p90"] = \
            sum(pipeline_ms)
    if wall_s:
        out["trace.coverage"] = roots / wall_s
    return out, inclusive
