"""Build the fixed train/test datasets the acceptance suite runs on.

Runs `trajsel gen` and `trajsel labels` under configs/acceptance.ini for
each split; both run on SUPRIM_THREADS worker threads.
"""

import os
import sys

from trajsel.cli import cli

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CONFIG = os.path.join(ROOT, "configs", "acceptance.ini")
OUT = os.path.join(ROOT, "build", "acceptance")
SETS = (("train", 1000, 2000), ("test", 5000, 500))


def main() -> int:
    base = ["--config", CONFIG, "--out", OUT]
    for split, seed0, count in SETS:
        name = split + ".jsonl"
        for argv in (["--seed", str(seed0), "gen", "--count", str(count),
                      "--split", split, "--name", name],
                     ["labels", "--dataset", os.path.join(OUT, name)]):
            rc = cli(base + argv)
            if rc:
                return rc
    return 0


if __name__ == "__main__":
    sys.exit(main())
