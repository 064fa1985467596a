"""Fresh-interpreter set-up probe for the `setup_s` metric.

Reads a JSON list of [command, payload] pairs on stdin, imports
padicloci from the checkout's `src/`, answers each document once
through `cli.main` (which fills the per-process caches those documents
touch) and exits 0 when every answer exited 0.  The parent times the
whole process, from interpreter start to exit.
"""

import io
import json
import os
import sys


def main():
    docs = json.load(sys.stdin)
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    sys.path.insert(0, os.path.join(root, "src"))
    from padicloci import cli

    saved = sys.stdin, sys.stdout
    status = 0
    try:
        for cmd, payload in docs:
            sys.stdin = io.StringIO(json.dumps(payload))
            sys.stdout = io.StringIO()
            if cli.main([cmd]) != 0:
                status = 1
    finally:
        sys.stdin, sys.stdout = saved
    return status


if __name__ == "__main__":
    sys.exit(main())
