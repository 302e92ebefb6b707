"""Compute the science-payload digests the benchmark checks against.

    python3 perfbench/pin_digests.py            # print them
    python3 perfbench/pin_digests.py --write    # rewrite digests.json

Re-pinning says the science changed on purpose (a different RNG draw
order, say); a speed change must leave every digest as it is.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def compute():
    from perfbench.common import science_digest
    from perfbench.simload import HELD_OUT_SEEDS, SCENARIO_SEEDS, scenario_config
    from repro.experiments.runner import SharedCalibration
    from repro.core.team import CoCoATeam

    calibration = SharedCalibration()
    digests = {}
    for workload in ("fig7", "scale200"):
        digests[workload] = {}
        for seed in SCENARIO_SEEDS + HELD_OUT_SEEDS:
            config = scenario_config(workload, seed)
            result = CoCoATeam(config, pdf_table=calibration.table_for(config)).run()
            digests[workload][str(seed)] = science_digest(result)
    return digests


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write", action="store_true",
                        help="overwrite perfbench/digests.json")
    args = parser.parse_args(argv)
    for path in (os.path.join(ROOT, "src"), ROOT):
        if path not in sys.path:
            sys.path.insert(0, path)
    from perfbench.common import DIGESTS_PATH

    text = json.dumps(compute(), indent=2, sort_keys=True) + "\n"
    if args.write:
        with open(DIGESTS_PATH, "w", encoding="utf-8") as handle:
            handle.write(text)
    print(text, end="")
    return 0


if __name__ == "__main__":
    sys.exit(main())
