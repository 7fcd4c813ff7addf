"""Set-up time of one workload in a fresh process.

    python3 perfbench/setup_probe.py <workload> <call seed> <work dir>

Times everything from before ``import stablecond`` (numpy and scipy come
with it) through the first, cold call at the workload's set-up size, and
prints {"setup_s": seconds} as its last line.  Interpreter start-up is not
included.
"""

import time

T0 = time.perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402


def main(name: str, seed: int, work_dir: str) -> int:
    wl = workloads.make(name, "setup", Path(work_dir))
    wl.call(wl.inputs(seed))
    print('{"setup_s": %r}' % (time.perf_counter() - T0))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], int(sys.argv[2]), sys.argv[3]))
