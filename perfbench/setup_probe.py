"""Measure the benchmark's set-up in a fresh interpreter.

Set-up is importing the simulator, generating the workload's scenarios and
parsing them with ``parse_scenario``. run.py starts this script several times
and reports the median; it prints the elapsed seconds and nothing else.

    python3 perfbench/setup_probe.py <workload> <seed>
"""
import time

_T0 = time.perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import aessim.simloop  # noqa: E402,F401
from aessim.scenario import parse_scenario  # noqa: E402
from workloads import generate  # noqa: E402


def main() -> None:
    workload, seed = sys.argv[1], int(sys.argv[2])
    for case in generate(workload, seed, ROOT / "scenarios"):
        parse_scenario(case.raw, case.name)
    print(repr(time.perf_counter() - _T0))


if __name__ == "__main__":
    main()
