"""Record perfbench/reference.json: every workload's outputs at its default seed.

    python3 perfbench/reference.py

The benchmark compares runs at a workload's default seed against these
values.  Record them again only in a change that is meant to change the
program's outputs, and say so in that change.
"""

import json
import sys

import run


def main():
    if run.prepare() is None:
        return 2
    import workloads
    ref = {}
    for name, cls in workloads.WORKLOADS.items():
        wl = cls(cls.default_seed)
        wl.setup()
        outputs = wl.run()
        errors = [out["error"] for _, out in outputs if "error" in out]
        if errors or wl.gate_failures(outputs):
            print(f"{name}: outputs fail the gates; nothing recorded", file=sys.stderr)
            return 1
        ref[name] = dict(outputs)
        print(name, "recorded", flush=True)
    with open(workloads.REFERENCE, "w") as fh:
        json.dump(ref, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
