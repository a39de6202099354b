"""fastwave benchmark: one workload, end-to-end or traced per layer.

    python3 perfbench/run.py --workload measure-mc --seed 7 --seconds 30 --trace 0

Run from the root of a fastwave checkout; the package is imported from its
`src/`.  Workloads and their checks are in `workloads.py`, metric names and
units in `BENCHMARK.json`.

Each repetition is a fresh interpreter, as a CLI run is: it imports
fastwave, sets up (config, q, v, spectrum, basis) and does the workload's
fixed work once, so process-wide caches start cold every time.  Repetitions
run one after another while the next one still fits in --seconds; there is
at least one.

--trace 0 reports the end-to-end metrics: `setup_s`, the median set-up time
(at least SETUP_SAMPLES samples; set-up-only interpreters make up the
count), `wall_s`, the median time of the fixed work, and `peak_rss_mb`, the
median peak resident memory of a repetition.  `fail_frac` (failed /
attempted ops) is printed and is the `failed` and `attempted` of the result.

--trace 1 alternates untraced and traced repetitions and reports the
per-layer metrics of `spans.py`: the median over traced repetitions of the
set-up's and the fixed work's spans together.  Spans go to perfbench/out/.

The last line of standard output is the JSON result.  Without fastwave
sources under src/ the benchmark exits with code 2 and prints no result.
"""

import time

_T0 = time.perf_counter()      # a set-up sample counts from here

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_SAMPLES = 5
REP_TIMEOUT_S = 175


def prepare():
    """Put src/ first on the path and fix the BLAS threads; returns nproc.

    Returns None, after saying why, when the checkout has no fastwave sources.
    """
    if not os.path.isfile(os.path.join(SRC, "fastwave", "__init__.py")):
        print("perfbench: no fastwave sources under src/ in "
              f"{ROOT}; run it from the root of a fastwave checkout",
              file=sys.stderr)
        return None
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_THREAD_VARS:
        os.environ.setdefault(var, str(nproc))
    sys.path.insert(0, SRC)
    return nproc


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--toy", action="store_true",
                   help="small inputs for the smoke self-check")
    p.add_argument("--rep", choices=("setup", "untraced", "traced"),
                   help="internal: run one repetition in this interpreter")
    p.add_argument("--spans-out", help="internal: where a traced repetition "
                                       "writes its spans")
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be non-negative")
    return args


def git_commit():
    """HEAD of the checkout, read from .git; 'unknown' outside a git checkout."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.isfile(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def repetition(args):
    """One repetition in this interpreter; prints its report as JSON."""
    import workloads
    wl = workloads.WORKLOADS[args.workload](args.seed, toy=args.toy)
    tracer = None
    if args.rep == "traced":
        import spans
        tracer = spans.Tracer()
        tracer.install()
    wl.setup()
    report = {"setup_s": time.perf_counter() - _T0}
    if args.rep != "setup":
        if tracer:
            setup_spans, setup_steps = tracer.take()
        t = time.perf_counter()
        outputs = wl.run(tracer)
        report["wall_s"] = time.perf_counter() - t
        if tracer:
            tracer.uninstall()
            work_spans, steps = tracer.take()
            layers, inclusive = spans.summarize(work_spans, steps, report["wall_s"])
            layers.update(wl.layer_counts(outputs))
            for name, value in spans.summarize(setup_spans, setup_steps)[0].items():
                layers[name] += value
            report.update(layers=layers, inclusive=inclusive)
            with open(args.spans_out, "w") as fh:
                json.dump({"fields": ["name", "start", "end", "parent"],
                           "setup": setup_spans, "work": work_spans},
                          fh, separators=(",", ":"))
        import numpy
        import scipy
        report.update(outputs=outputs, failures=wl.failures(outputs), sizes=wl.sizes(),
                      versions={"python": platform.python_version(),
                                "numpy": numpy.__version__, "scipy": scipy.__version__})
    report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(report))


def spawn(args, kind, spans_out=None):
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--rep", kind]
    if args.toy:
        cmd.append("--toy")
    if spans_out:
        cmd += ["--spans-out", spans_out]
    res = subprocess.run(cmd, capture_output=True, text=True, timeout=REP_TIMEOUT_S)
    if res.returncode != 0:
        raise RuntimeError(f"{kind} repetition exited {res.returncode}:\n{res.stderr}")
    return json.loads(res.stdout.strip().splitlines()[-1])


def main(argv=None):
    args = parse_args(argv)
    nproc = prepare()
    if nproc is None:
        return 2
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.rep:
        repetition(args)
        return 0

    spec = load_spec()
    os.makedirs(OUT, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}" + ("-toy" if args.toy else "")
    kinds = ("untraced", "traced") if args.trace else ("untraced",)
    reps = {kind: [] for kind in kinds}
    start = time.perf_counter()
    rnd = 0
    while True:
        t_round = time.perf_counter()
        for kind in (kinds if rnd % 2 == 0 else kinds[::-1]):
            spans_out = os.path.join(OUT, f"{stem}-spans{len(reps[kind])}.json")
            reps[kind].append(spawn(args, kind, spans_out if kind == "traced" else None))
        rnd += 1
        now = time.perf_counter()
        if now - start + (now - t_round) > args.seconds:
            break
    runs = [r for kind in kinds for r in reps[kind]]
    setup_s = [r["setup_s"] for r in runs]
    if not args.trace:
        setup_s += [spawn(args, "setup")["setup_s"]
                    for _ in range(SETUP_SAMPLES - len(setup_s))]

    attempted = sum(len(r["outputs"]) for r in runs)
    failures = []
    first = json.dumps(runs[0]["outputs"])        # NaN-safe, unlike ==
    for i, r in enumerate(runs):
        failures += [f"rep {i}: {msg}" for msg in r["failures"]]
        if json.dumps(r["outputs"]) != first:
            failures.append(f"rep {i}: outputs differ from rep 0 with the same seed")
    failed = min(attempted, len(failures))

    walls = {kind: [r["wall_s"] for r in reps[kind]] for kind in kinds}
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "toy": args.toy, "run_seconds": args.seconds,
        "sizes": runs[0]["sizes"],
        "nproc": nproc, **runs[0]["versions"],
        "blas_threads": {v: os.environ[v] for v in BLAS_THREAD_VARS},
        "commit": git_commit(), "setup_s": setup_s, "wall_s": walls,
        "peak_rss_mb": [r["peak_rss_mb"] for r in runs], "failures": failures,
    }
    if args.trace:
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        values = {name: statistics.median(r["layers"][name] for r in reps["traced"])
                  for name in units if name != "trace.overhead_frac"}
        values["trace.overhead_frac"] = (statistics.median(walls["traced"])
                                         / statistics.median(walls["untraced"]) - 1.0)
        record["inclusive_s"] = [r["inclusive"] for r in reps["traced"]]
    else:
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        values = {"setup_s": statistics.median(setup_s),
                  "wall_s": statistics.median(walls["untraced"]),
                  "peak_rss_mb": statistics.median(record["peak_rss_mb"])}
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
    result = {"correct": not failures, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    with open(os.path.join(OUT, stem + ".json"), "w") as fh:
        json.dump({"record": record, "result": result}, fh, indent=1)

    print("record " + json.dumps(record))
    for msg in failures:
        print("FAILED " + msg)
    for name, m in metrics.items():
        print(f"{name} {m['value']!r} {m['unit']}")
    if not args.trace:
        print(f"fail_frac {failed / attempted!r} 1")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
