"""Capture the answer digests that the default-seed runs compare against.

    python3 perfbench/capture_digests.py

Generates the default seed's documents for each workload, answers every
document once and writes the sha256 of each answer with its exit code
to `digests/<workload>.json`.  Run it only on a commit whose answers are
the reference: the benchmark then fails any later commit on which one
byte of one answer differs.
"""

import json
import os
import sys

import checks
import run
import workloads


def main():
    package = run.load_program()
    if package is None:
        print("capture_digests: no padicloci sources under %s" % run.SRC, file=sys.stderr)
        return 2
    client = run.Client(package.cli)
    os.makedirs(checks.DIGEST_DIR, exist_ok=True)
    for name in sorted(workloads.WORKLOADS):
        workload = workloads.WORKLOADS[name]
        blocks = run.prepare(workload, checks.DEFAULT_SEED, client)
        run.warm_up(workload, client)
        digests = []
        for cmd, _, text in (d for b in blocks for d in b):
            code, out, _ = client.send(cmd, text)
            digests.append(checks.digest(code, out))
        with open(checks.digest_path(name), "w", encoding="utf-8") as fh:
            json.dump(digests, fh, indent=0)
            fh.write("\n")
        print("%s: %d digests" % (name, len(digests)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
