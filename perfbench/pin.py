"""Pin the expected output digests that ``run.py`` checks.

    python3 perfbench/pin.py

Runs the first rounds of every workload for each pinned seed and size
and rewrites ``expected.json`` with one digest per round.  Run it only
on code whose trajectories are known good: a behaviour change that is
meant to alter seeded outputs re-pins here, in its own change, and says
so.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys

import run
from workloads import WORKLOADS, output_dir

PINNED_SEEDS = {"full": [run.DEFAULT_SEED, *range(1, 11)], "tiny": [run.DEFAULT_SEED]}
# Rounds pinned per seed; a run checks those of its rounds that are pinned.
PINNED_ROUNDS = {"full": 16, "tiny": 4}


def main() -> int:
    sys.path.insert(0, run.SRC)
    run.fresh_import()
    pinned = {}
    for name, workload_cls in WORKLOADS.items():
        for size, seeds in PINNED_SEEDS.items():
            for seed in seeds:
                workload = workload_cls(seed, size, output_dir(run.OUT, name, seed, size))
                digests = []
                for index in range(PINNED_ROUNDS[size]):
                    digest = hashlib.sha256()
                    for unit in run.round_units(workload, index):
                        digest.update(workload.run_unit(unit).output)
                    digests.append(digest.hexdigest())
                pinned.setdefault(name, {}).setdefault(size, {})[str(seed)] = digests
                print(name, size, seed, digests[0], flush=True)
    with open(os.path.join(run.HERE, "expected.json"), "w") as handle:
        json.dump(pinned, handle, indent=2)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
