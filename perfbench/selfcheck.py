"""Self-check of the benchmark itself.

    python3 perfbench/selfcheck.py

For each workload:
* two traced runs with the default seed must report every count exactly
  the same (the named exact counters, and every other per-layer metric
  whose unit is a count or bytes), and each run's counters read from
  the answers must equal the wrapper counts (run.py checks that and
  reports it through `correct`);
* a traced and an untraced run with the next seed must pass every
  output check.
Exits 0 when all of it holds.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import workloads  # noqa: E402
from checks import DEFAULT_SEED  # noqa: E402

OTHER_SEED = DEFAULT_SEED + 1

EXACT = (
    "complexes.characters",
    "complexes.specialize.calls",
    "padic.teichmuller.digits",
    "cosets.components",
    "cosets.grid_points",
    "conic.orbit_points",
)


def bench(workload, seed, trace, seconds=2):
    cmd = [
        sys.executable,
        os.path.join(HERE, "run.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError("%s exited %d: %s" % (" ".join(cmd), proc.returncode, proc.stderr[-2000:]))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main():
    ok = True
    for name in sorted(workloads.WORKLOADS):
        first = bench(name, DEFAULT_SEED, 1)
        second = bench(name, DEFAULT_SEED, 1)
        exact = [
            k for k, v in first["metrics"].items() if k in EXACT or v["unit"] in ("count", "bytes")
        ]
        drift = [k for k in exact if first["metrics"][k]["value"] != second["metrics"][k]["value"]]
        other_traced = bench(name, OTHER_SEED, 1)
        other_timed = bench(name, OTHER_SEED, 0)
        checks = {
            "same-seed traced runs correct": first["correct"] and second["correct"],
            "%d counts repeat exactly" % len(exact): not drift,
            "seed %d traced run correct" % OTHER_SEED: other_traced["correct"],
            "seed %d untraced run correct" % OTHER_SEED: other_timed["correct"],
        }
        for label, passed in checks.items():
            print("%-16s %-4s %s" % (name, "ok" if passed else "FAIL", label))
            ok = ok and passed
        for k in drift:
            print("%-16s      %s: %s then %s" % (name, k, first["metrics"][k]["value"], second["metrics"][k]["value"]))
        for k in EXACT:
            print("%-16s      %s = %s" % (name, k, first["metrics"][k]["value"]))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
