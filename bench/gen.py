"""Input generator, run as a fresh process so that building the inputs
warms nothing in the process that is timed.  It does not import incalg:
the inputs are the benchmark's own.

    python3 bench/gen.py --workload NAME --seed N [--smoke] --out FILE
"""

import argparse
import json
import sys

import shared


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(shared.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    inputs = shared.workload_module(args.workload).generate(args.seed,
                                                            args.smoke)
    with open(args.out, "w") as fh:
        json.dump(inputs, fh, sort_keys=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
