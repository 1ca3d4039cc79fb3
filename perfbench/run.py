#!/usr/bin/env python3
"""Build and run the R2C2 benchmark for one workload and one seed.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run it from the repository root. It builds perfbench/r2c2_bench.exe with
dune into .bench_build/, runs it, and relays its report: every metric as
"metric NAME VALUE UNIT", then a run envelope, then the JSON summary as the
last line. The envelope and all metrics are also saved under
.bench_build/perfbench/, next to the Chrome trace of a traced run.

Exit status: 0 when every output was correct, 1 on a correctness failure or
a crash, 2 when the sources or the toolchain are missing.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys

WORKLOADS = ("fig10_global", "ctrl_lossy", "stack_epochs")
BUILD_DIR = ".bench_build"
DUNE_DIR = os.path.join(BUILD_DIR, "dune")
OUT_DIR = os.path.join(BUILD_DIR, "perfbench")
EXE = os.path.join(DUNE_DIR, "default", "perfbench", "r2c2_bench.exe")
SOURCES = ("dune-project", "dune", "lib", "perfbench")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def die(code, msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def dune_command():
    if shutil.which("dune"):
        return ["dune"]
    if shutil.which("opam"):
        return ["opam", "exec", "--", "dune"]
    die(2, "dune not found on PATH")


def capture(cmd):
    try:
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=30)
        return out.stdout.strip() if out.returncode == 0 else None
    except (OSError, subprocess.SubprocessError):
        return None


def source_digest():
    """SHA-256 over the sources the benchmark builds from, so runs of an
    unversioned checkout can still be told apart."""
    h = hashlib.sha256()
    for top in ("lib", "perfbench"):
        for d, dirs, files in os.walk(top):
            dirs.sort()
            for f in sorted(files):
                p = os.path.join(d, f)
                h.update(p.encode())
                with open(p, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()[:16]


def envelope(args, params):
    return {
        "git_rev": capture(["git", "rev-parse", "HEAD"]) or "unknown",
        "source_digest": source_digest(),
        "host": platform.node(),
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "ocaml": capture(["ocamlfind", "ocamlopt", "-version"])
        or capture(["ocamlopt", "-version"])
        or "unknown",
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "params": params,
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    for p in SOURCES:
        if not os.path.exists(p):
            die(2, f"'{p}' not found: run from the root of an R2C2 checkout")

    os.makedirs(OUT_DIR, exist_ok=True)
    env = dict(os.environ, DUNE_CACHE="disabled", OCAML_RUNTIME_EVENTS_DIR=OUT_DIR)
    env.pop("OCAML_RUNTIME_EVENTS_PRESERVE", None)
    build = subprocess.run(
        dune_command()
        + ["build", "--root", ".", "--build-dir", os.path.abspath(DUNE_DIR), "./perfbench/r2c2_bench.exe"],
        stdout=sys.stderr,
        stderr=sys.stderr,
        env=env,
        timeout=BUILD_TIMEOUT_S,
    )
    if build.returncode != 0 or not os.path.exists(EXE):
        die(2, "build failed")

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    cmd = [
        EXE,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    if args.trace:
        cmd += ["--trace-out", os.path.join(OUT_DIR, f"trace-{stem}.json")]
    try:
        run = subprocess.run(cmd, capture_output=True, text=True, env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die(1, f"benchmark exceeded {RUN_TIMEOUT_S} s")
    sys.stderr.write(run.stderr)
    lines = run.stdout.rstrip("\n").split("\n")
    try:
        summary = json.loads(lines[-1])
        ok = set(summary) == {"correct", "attempted", "failed", "metrics"}
    except (ValueError, IndexError):
        ok = False
    if not ok:
        sys.stdout.write(run.stdout)
        die(1, f"no result (exit {run.returncode})")

    body = lines[:-1]
    params = dict(l.split(" ", 2)[1:] for l in body if l.startswith("param "))
    metrics = {}
    for l in body:
        if l.startswith("metric "):
            _, name, value, unit = l.split(" ", 3)
            metrics[name] = {"value": float(value), "unit": unit}
    env_rec = envelope(args, params)
    with open(os.path.join(OUT_DIR, f"result-{stem}.json"), "w") as fh:
        json.dump({"envelope": env_rec, "report": metrics, "summary": summary}, fh, indent=1)

    print("\n".join(body))
    print("envelope " + json.dumps(env_rec, sort_keys=True))
    print(lines[-1])
    sys.exit(0 if run.returncode == 0 and summary["correct"] else 1)


if __name__ == "__main__":
    main()
