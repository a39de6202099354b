"""Repeat the benchmark over seeds, report spreads, and write a baseline.

    python3 perfbench/collect.py --seeds 1-10 [--workloads measure-mc,...]
        [--seconds 25] [--out perfbench/results/baseline.json]

For each workload it runs `run.py --trace 0` once per seed, one after
another, and gives each end-to-end metric's median, quartiles and spread,
the distance between the first and third quartile as a share of the median
(Python's statistics.quantiles(n=4)).  Each spread is compared with a third
of the metric's bound in BENCHMARK.json.  With --out it also runs one
traced run per workload at its default seed, checks the re-anchor profile
of ROADMAP.md against it, and writes everything to one JSON file.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

import run
import spans

# the re-anchor profile of ROADMAP.md as (workload, claim, claimed share,
# spans or metrics in the numerator, span in the denominator or None for
# the repetition's wall time); a measure sample is Magnus + KAM + omega_infty.
# A share claim holds within SHARE_SLACK, an "under" claim below its share.
PROFILE_CLAIMS = [
    ("measure-mc", "KAM (kam_iterate) share of a measure sample", 0.84,
     ("kam.kam_iterate",), "melnikov.estimate_measure"),
    ("measure-mc", "omega_infty_test share of a measure sample", 0.14,
     ("melnikov.omega_infty_test",), "melnikov.estimate_measure"),
    ("measure-mc", "Magnus + init_state share of a measure sample is under", 0.02,
     ("magnus.magnus_transform", "kam.init_state"), "melnikov.estimate_measure"),
    ("paper-toy-kam", "norm tracking share of the KAM run", 0.49,
     ("kam.norm_tracking_s",), None),
    ("paper-toy-kam", "ad share of the KAM run", 0.39, ("opmatrix.ad",), None),
    ("paper-toy-kam", "BlockOperator.__matmul__ share of the KAM run", 0.34,
     spans.MATMUL, None),
    ("paper-toy-kam", "solve_homological share of the KAM run", 0.06,
     ("kam.solve_homological",), None),
]
SHARE_SLACK = 0.05     # a share claim holds within 5 points


def seed_list(text):
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out += list(range(int(lo), int(hi or lo) + 1))
    return out


def bench(workload, seed, seconds, trace, *extra):
    """The JSON result of one benchmark run."""
    cmd = [sys.executable, os.path.join(run.HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace), *extra]
    res = subprocess.run(cmd, capture_output=True, text=True, cwd=run.ROOT, timeout=900)
    if res.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {res.returncode}:\n{res.stderr}")
    return json.loads(res.stdout.strip().splitlines()[-1])


def spread_table(results, spec):
    table = {}
    for m in spec["end_to_end"]:
        vals = [r["metrics"][m["name"]]["value"] for r in results]
        q1, med, q3 = statistics.quantiles(vals, n=4)
        med = statistics.median(vals)
        table[m["name"]] = {"values": vals, "median": med, "q1": q1, "q3": q3,
                            "spread": (q3 - q1) / med, "bound": m["bound"],
                            "steady": (q3 - q1) / med < m["bound"] / 3}
    return table


def profile_check(workload, seconds):
    """Traced run at the default seed; the claims of PROFILE_CLAIMS against it."""
    import workloads
    seed = workloads.WORKLOADS[workload].default_seed
    result = bench(workload, seed, seconds, 1)
    with open(os.path.join(run.OUT, f"{workload}-seed{seed}-trace1.json")) as fh:
        record = json.load(fh)["record"]
    reps = list(zip(record["inclusive_s"], record["wall_s"]["traced"]))
    inclusive, wall = {}, 0.0
    for inc, w in reps:
        wall += w / len(reps)
        for k, v in inc.items():
            inclusive[k] = inclusive.get(k, 0.0) + v / len(reps)
    metrics = {"kam.norm_tracking_s": result["metrics"]["kam.norm_tracking_s"]["value"],
               "wall": wall}
    checks = []
    for wl, text, claimed, parts, base in PROFILE_CLAIMS:
        if wl != workload:
            continue
        num = sum(metrics[p] if p in metrics else inclusive.get(p, 0.0) for p in parts)
        share = num / (inclusive[base] if base else metrics["wall"])
        holds = (share < claimed if text.endswith("under")
                 else abs(share - claimed) <= SHARE_SLACK)
        checks.append({"claim": text, "claimed": claimed, "measured": share,
                       "holds": holds})
    if workload == "demo-pipeline":
        stages = {k[len("cli.stage."):]: v for k, v in inclusive.items()
                  if k.startswith("cli.stage.")}
        largest = max(stages, key=stages.get)
        checks.append({"claim": "psdo-audit is the largest demo stage",
                       "measured": {k: stages[k] for k in sorted(stages)},
                       "holds": largest == "psdo-audit"})
    return {"seed": seed, "correct": result["correct"], "record": record,
            "per_layer": {k: v["value"] for k, v in result["metrics"].items()},
            "profile_check": checks}


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--workloads", default=None)
    p.add_argument("--seconds", type=float, default=None)
    p.add_argument("--out", default=None)
    args = p.parse_args()
    if run.prepare() is None:
        return 2
    import workloads
    spec = run.load_spec()
    seconds = args.seconds or spec["run_seconds"]
    names = args.workloads.split(",") if args.workloads else list(workloads.WORKLOADS)
    doc = {"seconds": seconds, "seeds": seed_list(args.seeds), "workloads": {}}
    for name in names:
        results = []
        for seed in doc["seeds"]:
            results.append(bench(name, seed, seconds, 0))
            vals = {k: v["value"] for k, v in results[-1]["metrics"].items()}
            print(name, seed, results[-1]["correct"], vals, flush=True)
        entry = {"correct": all(r["correct"] for r in results),
                 "failed": sum(r["failed"] for r in results),
                 "attempted": sum(r["attempted"] for r in results),
                 "end_to_end": spread_table(results, spec)}
        for metric, row in entry["end_to_end"].items():
            print(f"{name} {metric}: median {row['median']:.4g} spread "
                  f"{row['spread']:.4f} (bound/3 {row['bound'] / 3:.4f})", flush=True)
        if args.out:
            entry.update(profile_check(name, seconds))
            for c in entry["profile_check"]:
                print(name, "holds" if c["holds"] else "does not hold", c["claim"],
                      c["measured"], flush=True)
        doc["workloads"][name] = entry
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(doc, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
