#!/usr/bin/env python3
"""Build and run the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Builds perfbench/main.exe from the checkout's sources with dune, then runs
it from the checkout root with the same arguments. The last line of
standard output is the JSON result; build output goes to standard error.
Exits non-zero without a result when the directory is not a checkout of
this repository or the build fails.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT = os.path.join(ROOT, "perfbench", "_out")
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "main.exe")

# Sources the benchmark links against; without them there is nothing to
# measure.
NEEDED = [
    "dune-project",
    "lib/vp/soc.ml",
    "lib/benchkit/defs.ml",
    "lib/difftest/harness.ml",
    "lib/iftgraph/analyze.ml",
]


def main():
    missing = [p for p in NEEDED if not os.path.exists(os.path.join(ROOT, p))]
    if missing:
        sys.stderr.write(
            "perfbench: %s is not a checkout of the simulator (missing %s)\n"
            % (ROOT, ", ".join(missing))
        )
        return 2
    try:
        build = subprocess.run(
            ["dune", "build", "--root", ROOT, "./perfbench/main.exe"],
            cwd=ROOT,
            stdout=sys.stderr,
        )
    except FileNotFoundError:
        sys.stderr.write("perfbench: dune not found on PATH\n")
        return 2
    if build.returncode != 0:
        return build.returncode
    os.makedirs(OUT, exist_ok=True)
    env = dict(os.environ)
    # The traced run reads the runtime's event rings: keep their file in
    # the benchmark's output directory, and make each domain's ring large
    # enough (2^19 words) to hold a campaign repetition between reads.
    env["OCAML_RUNTIME_EVENTS_DIR"] = OUT
    env["OCAMLRUNPARAM"] = ",".join(
        p for p in (env.get("OCAMLRUNPARAM", ""), "e=19") if p
    )
    # Pin glibc malloc's thresholds. By default they move at run time (a
    # freed mmap'd block raises them), so a SoC's 1 MiB RAM and tag
    # arrays come from fresh mmap'd pages, from reused heap memory, or
    # from heap memory trimmed and faulted in again, depending on what
    # the process freed before; set-up time then flips between levels
    # from run to run. Fixed thresholds keep large blocks on the heap and
    # the heap untrimmed in every run. One arena for every thread: the
    # campaign's worker domains are new threads in every Harness.run, and
    # with an arena each, memory freed in one arena is held while the
    # next workers grow another, so peak RSS depended on which arenas
    # they drew. Other allocators ignore these.
    env["MALLOC_MMAP_THRESHOLD_"] = str(32 << 20)
    env["MALLOC_TRIM_THRESHOLD_"] = str(256 << 20)
    env["MALLOC_ARENA_MAX"] = "1"
    try:
        return subprocess.run(
            [EXE] + sys.argv[1:], cwd=ROOT, env=env, timeout=170
        ).returncode
    except subprocess.TimeoutExpired:
        sys.stderr.write("perfbench: run exceeded 170 s\n")
        return 3


if __name__ == "__main__":
    sys.exit(main())
