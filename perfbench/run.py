#!/usr/bin/env python3
"""Layered benchmark of the xqgroup engine.

    python3 perfbench/run.py --workload cli-oneshot|server-resident|bounded-mem \
        --seed N --seconds T --trace 0|1 [--smoke]

Run from the repository root. Builds the benchmark program and the
`xq-server` daemon from source with dune, then runs one workload in a
scratch directory under `.bench_work/`. With `--trace 0` it prints the
end-to-end metrics, with `--trace 1` the per-layer metrics of a traced
run (spans land in `.bench_work/trace-<workload>.jsonl`). The last line
of standard output is one JSON object; the exit code is non-zero when
any output check fails or the build does.
"""
import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, "_build", "default")
WORKLOADS = ["cli-oneshot", "server-resident", "bounded-mem"]


def revision():
    """The git revision, or a digest of the sources outside a git checkout."""
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=10)
            if out.returncode == 0:
                return out.stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    h = hashlib.sha1()
    for top in ("bin", "lib"):
        for dirpath, dirnames, filenames in sorted(os.walk(os.path.join(ROOT, top))):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return "src-" + h.hexdigest()[:12]


def build():
    targets = ["./perfbench/xqbench.exe", "./bin/xq_server_main.exe"]
    return subprocess.run(["dune", "build", "--root", ".", *targets], cwd=ROOT,
                          stdout=sys.stderr).returncode


def declared_only(result_line, trace):
    """The result line, keeping the metrics BENCHMARK.json declares for this mode.

    xqbench reports all six end-to-end metrics, one per line above the
    result; the result keeps the ones steady enough to gate on.
    """
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        declared = json.load(f)["per_layer" if trace else "end_to_end"]
    result = json.loads(result_line)
    result["metrics"] = {m["name"]: result["metrics"][m["name"]] for m in declared}
    return json.dumps(result)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny inputs, a few operations")
    args = ap.parse_args()

    if build() != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    work_root = os.path.join(ROOT, ".bench_work")
    work = os.path.join(work_root, f"{args.workload}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    cmd = [os.path.join(BUILD, "perfbench", "xqbench.exe"), "run",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--server", os.path.join(BUILD, "bin", "xq_server_main.exe"),
           "--expected", os.path.join(HERE, "expected"), "--rev", revision()]
    if args.smoke:
        cmd.append("--smoke")
    # the engine's XQ_* settings stay at their defaults, and spill files
    # land in the scratch directory
    env = {k: v for k, v in os.environ.items() if not k.startswith("XQ_")}
    env["XQ_SPILL_DIR"] = env["TMPDIR"] = work
    # a process group of its own, so a timeout kills the daemon with xqbench
    proc = subprocess.Popen(cmd, cwd=work, env=env, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=170)
        rc = proc.returncode
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        out, _ = proc.communicate()
        print("perfbench: timed out", file=sys.stderr)
        rc = 3
    lines = out.splitlines()
    if lines and lines[-1].startswith("{"):
        lines[-1] = declared_only(lines[-1], args.trace)
    print("\n".join(lines), flush=True)
    trace = os.path.join(work, f"trace-{args.workload}.jsonl")
    if os.path.exists(trace):
        shutil.move(trace, os.path.join(work_root, os.path.basename(trace)))
    shutil.rmtree(work, ignore_errors=True)
    return rc


if __name__ == "__main__":
    sys.exit(main())
