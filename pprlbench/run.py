#!/usr/bin/env python3
"""Run one workload of the PPRL benchmark and print its result.

Usage, from the root of a checkout:

    python3 pprlbench/run.py --workload two_party_20k --seed 42 --seconds 5 --trace 0

The first call builds the repository's main sources together with the
benchmark program (sbt, offline) into `.bench_build/`; later calls reuse
that build while the sources are unchanged. The benchmark then runs in one
JVM with an explicit heap. Its last stdout line is the result object,
whose metric names are checked against BENCHMARK.json before it is
printed. Exits non-zero, printing no result, when the repository's
sources are missing or any step fails.
"""
import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
MAIN_SOURCES = ROOT / "src" / "main" / "scala"

# The JVM's heap is set here, not left to a default: 3 GiB holds the
# largest workload with room to spare and keeps the process small.
HEAP = "3g"
DEADLINE_S = 170
BUILD_DEADLINE_S = 700

# What Spark needs opened on Java 17 (spark-submit adds the same flags).
JAVA_OPENS = [
    f"--add-opens=java.base/{pkg}=ALL-UNNAMED"
    for pkg in ("java.lang", "java.lang.invoke", "java.lang.reflect", "java.io", "java.net",
                "java.nio", "java.util", "java.util.concurrent",
                "java.util.concurrent.atomic", "jdk.internal.ref", "sun.nio.ch",
                "sun.nio.cs", "sun.security.action", "sun.util.calendar")
] + ["-Djdk.reflect.useDirectMethodHandle=false",
     "-Dio.netty.tryReflectionSetAccessible=true"]


def fail(msg):
    print(f"pprlbench: {msg}", file=sys.stderr)
    sys.exit(2)


def source_files():
    files = sorted(MAIN_SOURCES.rglob("*.scala")) + sorted((HERE / "src").rglob("*"))
    files += [HERE / "build.sbt", HERE / "project" / "build.properties"]
    return [f for f in files if f.is_file()]


def source_hash():
    h = hashlib.sha256()
    for f in source_files():
        h.update(str(f.relative_to(ROOT)).encode())
        h.update(f.read_bytes())
    return h.hexdigest()


def run_group(cmd, timeout, **kw):
    """Run cmd in its own process group; kill the whole group on timeout."""
    proc = subprocess.Popen(cmd, start_new_session=True, **kw)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail(f"{cmd[0]} exceeded {timeout} s")
    return proc.returncode, out


def classpath(digest):
    """Build with sbt unless a build of these exact sources exists."""
    stamp = BUILD / "classpath.json"
    if stamp.exists():
        cached = json.loads(stamp.read_text())
        if cached.get("sources") == digest:
            return cached["classpath"]
    env = dict(os.environ)
    env.setdefault("COURSIER_MODE", "offline")
    repos = Path.home() / ".sbt" / "repositories"
    if "SBT_OPTS" not in env and repos.exists():
        env["SBT_OPTS"] = ("-Dsbt.override.build.repos=true -Dsbt.offline=true "
                           f"-Dsbt.repository.config={repos} -Xmx2g")
    code, out = run_group(
        ["sbt", "--batch", "-Dsbt.log.noformat=true", "-Dsbt.server.forcestart=false",
         "export Runtime/fullClasspath"],
        BUILD_DEADLINE_S, cwd=HERE, env=env, stdout=subprocess.PIPE, text=True)
    if code != 0:
        sys.stderr.write(out)
        fail(f"sbt build failed with exit code {code}")
    lines = [l for l in out.splitlines() if l and not l.startswith("[")]
    if not lines:
        sys.stderr.write(out)
        fail("sbt printed no classpath")
    BUILD.mkdir(exist_ok=True)
    stamp.write_text(json.dumps({"sources": digest, "classpath": lines[-1]}))
    return lines[-1]


def git_sha():
    try:
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                           text=True, timeout=10)
        return r.stdout.strip() if r.returncode == 0 else "none"
    except (OSError, subprocess.TimeoutExpired):
        return "none"


def check_result(line, trace):
    """The result line must name exactly the metrics BENCHMARK.json lists."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}
    res = json.loads(line)
    if set(res) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"result has keys {sorted(res)}")
    got = set(res["metrics"])
    if got != want:
        fail(f"metrics differ from BENCHMARK.json: missing {sorted(want - got)}, "
             f"extra {sorted(got - want)}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=int, default=1)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (MAIN_SOURCES / "repro" / "pprl" / "Pipeline.scala").is_file():
        fail(f"no repository sources under {MAIN_SOURCES}; run from the root of a full checkout")
    if not (ROOT / "BENCHMARK.json").is_file():
        fail("BENCHMARK.json is missing")

    digest = source_hash()
    cp = classpath(digest)
    for d in ("spark-local", "tmp"):
        (BUILD / d).mkdir(parents=True, exist_ok=True)
    java = Path(os.environ["JAVA_HOME"]) / "bin" / "java" if "JAVA_HOME" in os.environ else "java"
    cmd = [str(java), f"-Xmx{HEAP}", f"-Xms{HEAP}", *JAVA_OPENS,
           f"-Djava.io.tmpdir={BUILD / 'tmp'}",
           f"-Dpprlbench.localDir={BUILD / 'spark-local'}",
           f"-Dpprlbench.gitSha={git_sha()}",
           f"-Dpprlbench.sourceSha={digest}",
           "-cp", cp, "pprlbench.Main",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    code, out = run_group(cmd, DEADLINE_S, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = out.splitlines()
    if code != 0 or not lines:
        sys.stdout.write(out)
        fail(f"benchmark JVM exited with code {code}")
    check_result(lines[-1], args.trace == 1)
    print("\n".join(lines))


if __name__ == "__main__":
    main()
