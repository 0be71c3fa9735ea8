#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload ingest|lookup|restart --seed N \
        --seconds S --trace 0|1

Run from the root of a checkout. It builds perfbench/perfbench.exe with
dune (build output stays in the checkout's _build directory, the shared
dune cache is disabled) and then runs it, pinned to one CPU, with the
same arguments. The
benchmark's last line of standard output is one JSON object
{correct, attempted, failed, metrics}; see perfbench/README.md.
"""

import os
import subprocess
import sys

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
TARGET = "./perfbench/perfbench.exe"


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def parse(argv):
    allowed = {"--workload", "--seed", "--seconds", "--trace"}
    if len(argv) % 2:
        fail("arguments come in --name value pairs")
    opts = dict(zip(argv[::2], argv[1::2]))
    if set(opts) != allowed:
        fail("usage: run.py --workload W --seed N --seconds S --trace 0|1")
    if opts["--workload"] not in ("ingest", "lookup", "restart"):
        fail("unknown workload %r" % opts["--workload"])
    if opts["--trace"] not in ("0", "1"):
        fail("--trace takes 0 or 1")
    for name in ("--seed", "--seconds"):
        try:
            int(opts[name])
        except ValueError:
            fail("%s takes an integer" % name)
    return opts


def run(cmd, timeout, **kw):
    # subprocess.run kills the child on timeout and waits for it.
    try:
        return subprocess.run(cmd, timeout=timeout, **kw)
    except subprocess.TimeoutExpired:
        fail("timed out: " + " ".join(cmd))


def main():
    opts = parse(sys.argv[1:])
    # The benchmark builds the program from source: without the sources
    # there is nothing to measure.
    for path in ("dune-project", "lib/kv", "perfbench/dune"):
        if not os.path.exists(path):
            fail("run from the root of a source checkout (%s is missing)" % path)
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = run(
        ["dune", "build", "--root", ".", TARGET],
        BUILD_TIMEOUT_S,
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        fail("build failed")
    exe = os.path.join("_build", "default", "perfbench", "perfbench.exe")
    args = [a for pair in opts.items() for a in pair]
    # All of the benchmark's domains share one CPU. On a virtual machine
    # whose CPUs the host takes away for milliseconds at a time, two
    # domains handing work to each other across two CPUs stall whenever
    # either CPU is taken; on one CPU they only lose the time taken. The
    # last CPU usually serves fewer of the guest's interrupts than CPU 0.
    cpu = max(os.sched_getaffinity(0))
    print("# perfbench: pinned to cpu %d" % cpu, flush=True)
    result = run(
        [exe] + args,
        RUN_TIMEOUT_S,
        preexec_fn=lambda: os.sched_setaffinity(0, {cpu}),
    )
    sys.exit(result.returncode)


if __name__ == "__main__":
    main()
