"""Record the losses that each seed's first unit logs, for run.py's check.

    python3 perfbench/record.py --workload toy-recipe --seeds 0-31

Merges the values into perfbench/expected.json. Record again only when a
change to genmatch is meant to change training trajectories.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from pathlib import Path

import run


def parse_seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=parse_seeds, required=True, help="N or N-M")
    args = parser.parse_args(argv)
    run.bootstrap()
    from workloads import WORKLOADS, Tally

    expected = json.loads(run.EXPECTED_PATH.read_text()) if run.EXPECTED_PATH.is_file() else {}
    table = expected.setdefault(args.workload, {})
    run.WORK_DIR.mkdir(exist_ok=True)
    for seed in args.seeds:
        workload = WORKLOADS[args.workload]()
        tally = Tally(run.log)
        with tempfile.TemporaryDirectory(dir=run.WORK_DIR) as scratch:
            workload.prepare(seed, Path(scratch))
            unit = workload.unit(workload.setup(), tally)
        if tally.failed:
            run.log(f"seed {seed}: {tally.failed} checks failed; not recorded")
            return 1
        table[str(seed)] = unit.losses
        print(f"{args.workload} seed {seed}: {unit.losses}", flush=True)
        run.EXPECTED_PATH.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
