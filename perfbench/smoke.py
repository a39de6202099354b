"""Smoke self-check of the benchmark, at toy sizes.

    python3 perfbench/smoke.py

Runs every workload of BENCHMARK.json with --toy, untraced once and traced
twice with the same seed.  Asserts that each run is correct, that every
end-to-end and per-layer metric of BENCHMARK.json is emitted with its unit,
and that the two traced runs give identical counts.  Takes about a minute.
"""

import sys

import collect
import run

SEED = 3


def bench(workload, trace):
    return collect.bench(workload, SEED, 0, trace, "--toy")


def check_metrics(result, wanted, label):
    assert result["correct"] and result["failed"] == 0, f"{label}: {result}"
    assert result["attempted"] >= 1, label
    got = result["metrics"]
    assert set(got) == set(wanted), f"{label}: metrics {sorted(set(got) ^ set(wanted))}"
    for name, unit in wanted.items():
        assert got[name]["unit"] == unit, f"{label}: {name} unit {got[name]['unit']}"
        assert isinstance(got[name]["value"], (int, float)), f"{label}: {name}"


def main():
    spec = run.load_spec()
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    for w in spec["workloads"]:
        name = w["name"]
        check_metrics(bench(name, 0), e2e, f"{name} --trace 0")
        first, second = bench(name, 1), bench(name, 1)
        check_metrics(first, layers, f"{name} --trace 1")
        check_metrics(second, layers, f"{name} --trace 1")
        counts = {k: (first["metrics"][k]["value"], second["metrics"][k]["value"])
                  for k, unit in layers.items() if unit == "count"}
        differ = {k: v for k, v in counts.items() if v[0] != v[1]}
        assert not differ, f"{name}: counts differ between same-seed runs: {differ}"
        print(f"ok {name}: {len(e2e)} end-to-end and {len(layers)} per-layer "
              f"metrics, {len(counts)} counts repeat", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
