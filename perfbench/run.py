#!/usr/bin/env python3
"""Benchmark of the PyTond reproduction: one run of one workload.

    python3 perfbench/run.py --workload tpch --seed 0 --seconds 16 --trace 0

Run it from the root of a checkout. The first run compiles the repository's
Scala sources together with the benchmark's own (perfbench/src) with the
Scala compiler that ships in Spark's jars directory, into perfbench/work/build;
later runs reuse that build while the sources are unchanged. A first JVM
makes sure the workload's generated inputs for the seed are cached under
perfbench/work/inputs. The run itself is a second JVM
(repro.perfbench.Main) that sets up Spark and DuckDB, checks
every result against the workload's reference SQL, times the DuckDB paths
for --seconds (and, with --trace 1, the Spark paths for as long again), and
writes its result. The last line of standard output is a JSON
object with the keys correct, attempted, failed and metrics: the end-to-end
metrics of BENCHMARK.json with --trace 0, its per-layer metrics with --trace 1.

Needs: java 17, SPARK_HOME (or spark-submit on PATH) with Spark's jars, and
the DuckDB JDBC jar that build.sbt names, in the local coursier, Maven or Ivy
cache. Nothing is downloaded.
"""
import argparse
import glob
import hashlib
import json
import os
import re
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
# Generating the inputs and a run take about a minute together; JVMs still
# running this long after the build have hung.
JVM_TIMEOUT_S = 170
ROOT = os.path.dirname(HERE)
WORK = os.path.join(HERE, "work")

# Spark on JDK 17 needs these module opens (the same list as build.sbt).
ADD_OPENS = [
    "java.base/java.lang", "java.base/java.lang.invoke", "java.base/java.lang.reflect",
    "java.base/java.io", "java.base/java.net", "java.base/java.nio",
    "java.base/java.util", "java.base/java.util.concurrent",
    "java.base/java.util.concurrent.atomic", "java.base/jdk.internal.ref",
    "java.base/sun.nio.ch", "java.base/sun.nio.cs", "java.base/sun.security.action",
    "java.base/sun.util.calendar",
]


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def spark_jars():
    home = os.environ.get("SPARK_HOME")
    if not home and shutil.which("spark-submit"):
        home = os.path.dirname(os.path.dirname(os.path.realpath(shutil.which("spark-submit"))))
    jars = os.path.join(home or "", "jars")
    if not home or not os.path.isdir(jars):
        fail("cannot find Spark's jars: set SPARK_HOME")
    return sorted(glob.glob(os.path.join(jars, "*.jar")))


def duckdb_jar():
    sbt = os.path.join(ROOT, "build.sbt")
    m = None
    if os.path.isfile(sbt):
        with open(sbt) as fh:
            m = re.search(r'"duckdb_jdbc"\s*%\s*"([^"]+)"', fh.read())
    if not m:
        fail("build.sbt does not name a duckdb_jdbc version")
    ver = m.group(1)
    home = os.path.expanduser("~")
    caches = [os.environ.get("COURSIER_CACHE", ""), os.path.join(home, ".cache", "coursier"),
              os.path.join(home, ".m2", "repository"), os.path.join(home, ".ivy2")]
    for c in caches:
        if c and os.path.isdir(c):
            hits = glob.glob(os.path.join(c, "**", f"duckdb_jdbc-{ver}.jar"), recursive=True)
            if hits:
                return sorted(hits)[0]
    fail(f"duckdb_jdbc-{ver}.jar is not in a local coursier, Maven or Ivy cache")


def sources():
    main = os.path.join(ROOT, "src", "main", "scala")
    if not os.path.isdir(os.path.join(main, "repro")):
        fail(f"no Scala sources under {os.path.relpath(main)}: run from the root of a checkout")
    files = []
    for d in (main, os.path.join(HERE, "src")):
        files += glob.glob(os.path.join(d, "**", "*.scala"), recursive=True)
    return sorted(files)


def build():
    """Compile the sources once per distinct (sources, classpath); returns
    (classpath, source hash)."""
    srcs = sources()
    jars = spark_jars() + [duckdb_jar()]
    h = hashlib.sha256()
    for f in srcs:
        h.update(os.path.relpath(f, ROOT).encode())
        with open(f, "rb") as fh:
            h.update(hashlib.sha256(fh.read()).digest())
    source_hash = h.hexdigest()
    for j in jars:
        h.update(os.path.basename(j).encode())
    out = os.path.join(WORK, "build", h.hexdigest()[:16])
    classes = os.path.join(out, "classes")
    if not os.path.isfile(os.path.join(out, "OK")):
        scala = [j for j in jars if re.search(r"/scala-(compiler|library|reflect)-[\d.]+\.jar$", j)]
        if len(scala) != 3:
            fail("Spark's jars do not include the Scala compiler")
        shutil.rmtree(out, ignore_errors=True)
        os.makedirs(classes)
        argfile = os.path.join(out, "scalac.args")
        with open(argfile, "w") as fh:
            fh.write("\n".join(["-nowarn", "-d", classes, "-classpath", os.pathsep.join(jars)] + srcs))
        print(f"perfbench: compiling {len(srcs)} Scala sources", file=sys.stderr)
        r = subprocess.run(["java", "-Xss8m", "-Xmx2g", "-cp", os.pathsep.join(scala),
                            "scala.tools.nsc.Main", "@" + argfile], stdout=sys.stderr)
        if r.returncode != 0:
            fail("compilation failed")
        open(os.path.join(out, "OK"), "w").close()
    return os.pathsep.join([classes] + jars), source_hash


def git_sha():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "none: not a git checkout"
    r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True, text=True)
    return r.stdout.strip() if r.returncode == 0 else "unknown"


def run_java(cmd, timeout):
    """Run the JVM in the foreground; a SIGTERM to this script stops it too."""
    child = subprocess.Popen(cmd, cwd=ROOT)

    def stop(signum, _frame):
        child.terminate()
        try:
            child.wait(timeout=20)
        except subprocess.TimeoutExpired:
            child.kill()
            child.wait()
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    try:
        return child.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        stop(signal.SIGALRM, None)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], required=True)
    a = ap.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "BENCHMARK.json")):
        fail("no BENCHMARK.json at the root of the checkout")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    if a.workload not in [w["name"] for w in spec["workloads"]]:
        fail(f"unknown workload {a.workload}")
    cp, source_hash = build()
    tmp = os.path.join(WORK, "tmp")
    os.makedirs(tmp, exist_ok=True)
    result = os.path.join(WORK, "results", f"{a.workload}-seed{a.seed}-trace{a.trace}.json")
    os.makedirs(os.path.dirname(result), exist_ok=True)
    if os.path.exists(result):
        os.remove(result)
    threads = len(os.sched_getaffinity(0))
    cmd = (["java", "-Xms3g", "-Xmx3g", "-Xss8m", "-XX:+UseParallelGC"] + [f"--add-opens={p}=ALL-UNNAMED" for p in ADD_OPENS] +
           [f"-Djava.io.tmpdir={tmp}",
            f"-Dlog4j2.configurationFile={os.path.join(HERE, 'log4j2.properties')}",
            "-cp", cp, "repro.perfbench.Main",
            "--workload", a.workload, "--seed", str(a.seed), "--seconds", str(a.seconds),
            "--trace", str(a.trace), "--root", ROOT, "--work", WORK, "--threads", str(threads),
            "--result", result, "--git-sha", git_sha(), "--source-hash", source_hash])
    sys.stdout.flush()
    deadline = time.monotonic() + JVM_TIMEOUT_S
    code = run_java(cmd + ["--inputs-only", "1"], JVM_TIMEOUT_S)
    if code != 0:
        fail(f"generating the inputs failed with code {code}")
    code = run_java(cmd, max(1.0, deadline - time.monotonic()))
    if code != 0 or not os.path.isfile(result):
        fail(f"benchmark JVM exited with code {code}")
    with open(result) as fh:
        full = json.load(fh)
    print(json.dumps({k: full[k] for k in ("correct", "attempted", "failed", "metrics")}))


if __name__ == "__main__":
    main()
