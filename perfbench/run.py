#!/usr/bin/env python3
"""Build the benchmark, pin it to one CPU, and run it.

    python3 perfbench/run.py --workload p2p-small|p2p-bulk|coll-64|nas \
        --seed N --seconds S --trace 0|1

The build uses every CPU; the run is pinned to one CPU of the allowed
set. With one scheduler shard the simulator runs one rank thread at a
time, so pinning takes no parallelism from it, and it keeps rank-thread
hand-offs on one CPU: unpinned, the wake-up latency of a rank thread on
the other CPU of a 2-vCPU virtual machine made host timings differ by
up to 2x between runs.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def build():
    """Build in release mode; return the benchmark executable's path."""
    proc = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--message-format=json-render-diagnostics",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        sys.exit(proc.returncode)
    for line in proc.stdout.splitlines():
        msg = json.loads(line)
        if msg.get("reason") == "compiler-artifact" and msg.get("executable") \
                and msg["target"]["name"] == "perfbench":
            return msg["executable"]
    sys.exit("cargo built no perfbench executable")


def main():
    exe = build()
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    os.execv(exe, [exe] + sys.argv[1:])


if __name__ == "__main__":
    main()
