#!/usr/bin/env python3
"""Build and run one perfbench workload.

    python3 perfbench/run.py --workload auto-cold|session-serve|explore-gateway \\
        --seed N --seconds S --trace 0|1

Run from the root of a CHOP checkout.  Builds the benchmark program and the
chop binary with dune (build output goes to stderr), then runs the program;
its last line of standard output is the JSON result.  See README.md.
"""

import os
import shutil
import signal
import subprocess
import sys

WORKLOADS = ("auto-cold", "session-serve", "explore-gateway")
# The workloads whose processes all run on one CPU.
ONE_CPU = ("auto-cold", "explore-gateway")
MAIN = os.path.join("_build", "default", "perfbench", "main.exe")
CHOP = os.path.join("_build", "default", "bin", "chop_cli.exe")


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def parse(argv):
    opts = {}
    it = iter(argv)
    for k in it:
        if not k.startswith("--"):
            fail("unexpected argument " + k)
        v = next(it, None)
        if v is None:
            fail("missing value for " + k)
        opts[k[2:]] = v
    for k in ("workload", "seed", "seconds", "trace"):
        if k not in opts:
            fail("missing --" + k)
    if opts["workload"] not in WORKLOADS:
        fail("unknown workload %s (one of %s)" % (opts["workload"], ", ".join(WORKLOADS)))
    for k in ("seed", "seconds", "trace"):
        try:
            int(opts[k])
        except ValueError:
            fail("--%s takes a whole number" % k)
    if opts["trace"] not in ("0", "1"):
        fail("--trace takes 0 or 1")
    return opts


def dune():
    exe = shutil.which("dune")
    if exe:
        return [exe]
    if shutil.which("opam"):
        return ["opam", "exec", "--", "dune"]
    fail("dune not found on PATH")


def main():
    opts = parse(sys.argv[1:])
    if not (os.path.isfile("dune-project") and os.path.isdir("lib") and os.path.isdir("bin")):
        fail("run from the root of a CHOP checkout (dune-project, lib/ and bin/ not found)")
    # --cache=disabled: dune's shared cache lives outside the checkout,
    # and the benchmark reads and writes only inside it.
    build = subprocess.run(
        dune() + ["build", "--root", ".", "--display", "quiet", "--cache=disabled",
                  "./perfbench/main.exe", "./bin/chop_cli.exe"],
        stdout=sys.stderr, stderr=sys.stderr)
    if build.returncode != 0:
        fail("build failed", 1)
    cmd = [MAIN, "--workload", opts["workload"], "--seed", opts["seed"],
           "--seconds", opts["seconds"], "--trace", opts["trace"], "--chop", CHOP]
    # One client, one job: the program and the processes it spawns run on
    # one CPU, where each hand-off between them is a switch on that CPU
    # rather than a wake-up of another (virtual) CPU.  See README.md.
    if opts["workload"] in ONE_CPU and hasattr(os, "sched_setaffinity"):
        cpu = max(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})
        print("perfbench: %d CPUs on the host; this workload runs on CPU %d"
              % (os.cpu_count(), cpu), flush=True)
    # The program runs in its own process group, so a timeout also stops
    # the serve and gateway processes it spawned.
    proc = subprocess.Popen(cmd, start_new_session=True)
    try:
        code = proc.wait(timeout=170)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGTERM)
        try:
            proc.wait(timeout=5)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
        fail("timed out after 170 s", 1)
    sys.exit(code)


if __name__ == "__main__":
    main()
