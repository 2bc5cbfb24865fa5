#!/usr/bin/env python3
"""Runs one benchmark measurement of the Verdict middleware.

    python3 perfbench/run.py --workload aqp-suite --seed 1 --seconds 10 --trace 0

Run from the root of a checkout. On first use it compiles the program's
sources together with the harness (sbt, offline) and caches the build; later
runs start the JVM directly. Data, exact answers, traces and Spark's scratch
space live under $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench).

The last line of standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
with the end-to-end metrics for --trace 0 and the per-layer metrics for
--trace 1. The run exits non-zero, without a result line, when it cannot
build or run the program.
"""
import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("aqp-suite", "contract-mix")
RUN_LIMIT_S = 170          # the JVM's share of the 180 s a run may take
BUILD_LIMIT_S = 840
DRIVER_HEAP = "3g"

# Spark 4 on Java 17 needs these JDK internals opened (as spark-submit does).
JVM_OPTS = [f"--add-opens=java.base/{p}=ALL-UNNAMED" for p in (
    "java.lang", "java.lang.invoke", "java.lang.reflect", "java.io", "java.net",
    "java.nio", "java.util", "java.util.concurrent", "java.util.concurrent.atomic",
    "jdk.internal.ref", "sun.nio.ch", "sun.nio.cs", "sun.security.action",
    "sun.util.calendar")] + ["-Djdk.reflect.useDirectMethodHandleAccessor=false"]

_child = None


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build_inputs():
    files = sorted((ROOT / "src" / "main").rglob("*"))
    files += sorted((HERE / "src").rglob("*"))
    files += [HERE / "build.sbt", HERE / "project" / "build.properties"]
    return [f for f in files if f.is_file()]


def build(work):
    """Compiles once per distinct source tree; returns the JVM classpath."""
    if not (ROOT / "src" / "main" / "scala").is_dir():
        fail(f"no program sources under {ROOT / 'src' / 'main' / 'scala'}; "
             "run from the root of a full checkout")
    digest = hashlib.sha256()
    for f in build_inputs():
        digest.update(str(f.relative_to(ROOT)).encode() + b"\0" + f.read_bytes() + b"\0")
    stamp = digest.hexdigest()
    work.mkdir(parents=True, exist_ok=True)
    cp_file = HERE / "target" / "classpath.txt"
    stamp_file = work / "build.stamp"
    if cp_file.is_file() and stamp_file.is_file() and stamp_file.read_text() == stamp:
        return cp_file.read_text().strip()
    sbt = shutil.which("sbt")
    if sbt is None:
        fail("sbt not found on PATH")
    env = dict(os.environ)
    env.setdefault("COURSIER_MODE", "offline")
    opts = env.get("SBT_OPTS", "")
    if "sbt.offline" not in opts:
        opts += " -Dsbt.offline=true"
    env["SBT_OPTS"] = opts.strip()
    print("# building the program and the harness (sbt compile)", flush=True)
    try:
        res = subprocess.run([sbt, "--batch", "-Dsbt.log.noformat=true", "compile",
                              "writeClasspath"], cwd=HERE, env=env, stdin=subprocess.DEVNULL,
                             stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                             timeout=BUILD_LIMIT_S, text=True)
    except subprocess.TimeoutExpired:
        fail("build timed out")
    if res.returncode != 0 or not cp_file.is_file():
        sys.stderr.write(res.stdout[-4000:])
        fail("build failed")
    stamp_file.write_text(stamp)
    return cp_file.read_text().strip()


def java_bin():
    home = os.environ.get("JAVA_HOME")
    if home and (Path(home) / "bin" / "java").is_file():
        return str(Path(home) / "bin" / "java")
    return shutil.which("java") or fail("java not found")


def stop_child(*_):
    if _child is not None and _child.poll() is None:
        os.killpg(_child.pid, signal.SIGKILL)
        _child.wait()
    sys.exit(3)


def main():
    global _child
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    a = ap.parse_args()

    work = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    work = (work if work.is_absolute() else ROOT / work) / "perfbench"
    classpath = build(work)
    (work / "tmp").mkdir(parents=True, exist_ok=True)

    started = time.monotonic()
    cores = len(os.sched_getaffinity(0))
    cmd = [java_bin(), *JVM_OPTS, f"-Xmx{DRIVER_HEAP}",
           f"-Djava.io.tmpdir={work / 'tmp'}", "-Dspark.ui.enabled=false",
           "-cp", classpath, "perfbench.Main",
           "--workload", a.workload, "--seed", str(a.seed), "--seconds", str(a.seconds),
           "--trace", a.trace, "--work", str(work), "--cores", str(cores)]
    signal.signal(signal.SIGTERM, stop_child)
    signal.signal(signal.SIGINT, stop_child)
    log = open(work / f"jvm-{os.getpid()}.log", "w")
    _child = subprocess.Popen(cmd, cwd=ROOT, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                              stderr=log, text=True, start_new_session=True)
    try:
        out, _ = _child.communicate(timeout=RUN_LIMIT_S - (time.monotonic() - started))
    except subprocess.TimeoutExpired:
        os.killpg(_child.pid, signal.SIGKILL)
        _child.wait()
        log.close()
        fail(f"run exceeded {RUN_LIMIT_S} s; JVM log: {log.name}", 1)
    log.close()
    result = None
    for line in out.splitlines():
        if line.startswith("PERFBENCH_RESULT "):
            result = json.loads(line[len("PERFBENCH_RESULT "):])
        else:
            print(line)
    if _child.returncode != 0 or result is None:
        sys.stderr.write(Path(log.name).read_text()[-4000:])
        fail(f"the run failed (exit {_child.returncode})", 1)
    os.remove(log.name)
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
