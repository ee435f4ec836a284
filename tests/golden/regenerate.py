"""Rewrite ``tests/golden/digests.json``, one fresh interpreter per case.

Run from the repository root::

    PYTHONPATH=src python -m tests.golden.regenerate

A fresh interpreter per case keeps each digest independent of whatever
an earlier case left in process-global state.  Any digest change must be
justified in CHANGES.md.
"""

import json
import os
import subprocess
import sys

from tests.golden.cases import CASES, digest

PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                    "digests.json")


def main(argv):
    if argv[:1] == ["--case"]:
        print(digest(argv[1]))
        return
    digests = {}
    for name in CASES:
        out = subprocess.run(
            [sys.executable, "-m", "tests.golden.regenerate", "--case", name],
            check=True, capture_output=True, text=True)
        digests[name] = out.stdout.strip()
        print(f"{name}: {digests[name]}")
    with open(PATH, "w") as handle:
        json.dump(digests, handle, indent=2, sort_keys=True)
        handle.write("\n")


if __name__ == "__main__":
    main(sys.argv[1:])
