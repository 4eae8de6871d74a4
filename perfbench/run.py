#!/usr/bin/env python3
"""End-to-end benchmark entry point; run from the repository root.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload W --steadiness N --seconds S
    python3 perfbench/run.py --self-test

The first form builds the oasis executable and the benchmark program
from source in .perfbench/ws, runs one timed (--trace 0) or traced (--trace 1) run, and
prints its JSON result as the last line of standard output. The second
runs the workload N times on seeds 1..N (or --seeds), each between two
timings of a fixed CPU loop, and prints every metric's median,
quartiles and IQR/median. The third runs the benchmark's own tests.
See perfbench/README.md.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

WORK = ".perfbench"
# The benchmark's dune project (perfbench/src) plus the repository's
# lib/ and bin/, linked into one workspace so the repository's own
# build never sees the benchmark.
WS = os.path.join(WORK, "ws")
SRC = os.path.join("perfbench", "src")
BENCH = os.path.join(WS, "_build", "default", "perfbench.exe")
OASIS = os.path.join(WS, "_build", "default", "bin", "oasis_cli.exe")


def env():
    # Everything a build or run writes stays inside the checkout.
    tmp = os.path.join(os.getcwd(), WORK, "tmp")
    os.makedirs(tmp, exist_ok=True)
    return dict(os.environ, DUNE_CACHE="disabled", TMPDIR=tmp)


def workspace():
    if not (os.path.isfile(os.path.join("bin", "oasis_cli.ml"))
            and os.path.isdir("lib") and os.path.isdir(SRC)):
        sys.exit("perfbench: run from the repository root (no bin/oasis_cli.ml, lib/ or perfbench/src here)")
    os.makedirs(WS, exist_ok=True)
    for name in os.listdir(WS):
        if os.path.islink(os.path.join(WS, name)):
            os.unlink(os.path.join(WS, name))
    up = os.path.join("..", "..")
    for name in os.listdir(SRC):
        os.symlink(os.path.join(up, SRC, name), os.path.join(WS, name))
    for name in ["lib", "bin"]:
        os.symlink(os.path.join(up, name), os.path.join(WS, name))


def build(targets):
    workspace()
    r = subprocess.run(["dune", "build", "--root", ".", *targets],
                       cwd=WS, env=env(), stdout=sys.stderr)
    if r.returncode != 0:
        sys.exit(f"perfbench: build failed ({r.returncode})")


def bench(args, capture=False):
    cmd = [BENCH, "--oasis", OASIS, "--work", WORK, *args]
    if capture:
        r = subprocess.run(cmd, env=env(), stdout=subprocess.PIPE, text=True)
        return r.returncode, r.stdout
    return subprocess.run(cmd, env=env()).returncode, None


def last_json(out):
    lines = [l for l in out.splitlines() if l.strip()]
    if not lines:
        raise ValueError("no output")
    return json.loads(lines[-1])


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med if med else float("nan")


def steadiness(a):
    seeds = [int(s) for s in a.seeds.split(",")] if a.seeds else list(range(1, a.steadiness + 1))
    calib, metrics, units, failed = [], {}, {}, 0
    def calibrate():
        code, out = bench(["--calibrate"], capture=True)
        calib.append(last_json(out)["calibration_s"])

    for seed in seeds:
        calibrate()
        code, out = bench(["--workload", a.workload, "--seed", str(seed),
                            "--seconds", str(a.seconds), "--trace", str(a.trace)], capture=True)
        if code != 0:
            sys.exit(f"perfbench: seed {seed} failed with exit code {code}")
        res = last_json(out)
        failed += res["failed"]
        for name, m in res["metrics"].items():
            metrics.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
        vals = " ".join(f"{n}={m['value']:.4g}" for n, m in res["metrics"].items())
        print(f"seed {seed}: correct={res['correct']} failed={res['failed']} {vals}", flush=True)
    calibrate()
    print(f"\n{a.workload}: {len(seeds)} runs of {a.seconds}s, {failed} failed operations")
    print(f"{'metric':34} {'median':>12} {'q1':>12} {'q3':>12} {'IQR/med':>8}")
    for name, vals in [*metrics.items(), ("calibration_s", calib)]:
        med, q1, q3, rel = spread(vals)
        unit = units.get(name, "s")
        print(f"{name + ' (' + unit + ')':34} {med:12.5g} {q1:12.5g} {q3:12.5g} {rel:8.2%}")


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int)
    p.add_argument("--seconds", type=int, default=10)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--steadiness", type=int, metavar="N")
    p.add_argument("--seeds", help="comma-separated seeds for --steadiness")
    p.add_argument("--self-test", action="store_true")
    a = p.parse_args()
    if a.self_test:
        build(["@runtest"])
        return 0
    if not a.workload:
        p.error("--workload is required")
    build(["./bin/oasis_cli.exe", "./perfbench.exe"])
    if a.steadiness:
        steadiness(a)
        return 0
    if a.seed is None:
        p.error("--seed is required")
    code, _ = bench(["--workload", a.workload, "--seed", str(a.seed),
                      "--seconds", str(a.seconds), "--trace", str(a.trace)])
    return code


if __name__ == "__main__":
    sys.exit(main())
