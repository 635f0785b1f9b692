"""Time, in a fresh interpreter, importing crlsim and building one workload's config.

The CPU time is reported; the caller reads it at a fixed speed (see gauge.py).

Usage: python3 perfbench/setup_probe.py WORKLOAD SEED
Prints one JSON object with the CPU seconds taken, {"setup_cpu_s": ...}.
"""

import json
import sys
import time
from pathlib import Path

from workloads import WORKLOADS


def main() -> int:
    workload, seed = WORKLOADS[sys.argv[1]], int(sys.argv[2])
    src = Path(__file__).resolve().parent.parent / "src"
    sys.path.insert(0, str(src))
    start = time.process_time()
    import crlsim.cli

    crlsim.cli.build_config(workload.scenario, {"rng_seed": seed})
    cpu = time.process_time() - start
    if not Path(crlsim.__file__).resolve().is_relative_to(src):
        print(f"crlsim imported from {crlsim.__file__}, not from {src}", file=sys.stderr)
        return 2
    print(json.dumps({"setup_cpu_s": cpu}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
