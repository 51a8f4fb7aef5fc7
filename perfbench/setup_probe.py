"""Set-up time of one workload in a fresh interpreter, printed in seconds.

    python3 perfbench/setup_probe.py --workload fig1 --seed 1

Times importing fracheat, building the workload's inputs from the seed and
paying the first-call costs (lazy imports, scipy wrappers) on a miniature
run: what every new process pays before its first real repetition.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402

import workloads  # noqa: E402


def main() -> None:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=list(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    args = p.parse_args()
    workloads.WORKLOADS[args.workload].prepare(args.seed)
    print(repr(time.perf_counter() - _T0))


if __name__ == "__main__":
    main()
