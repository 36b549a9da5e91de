"""steinsurf benchmark: one workload, one seed, one result line.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --smoke

Set-up builds the workload's scenario from the seed and, untraced, times
cold starts of the CLI.  One worker process (bench/worker.py) then runs
timed passes; this process waits for it, checks every distinct report
against the oracle, and prints one JSON object as its last line: the
end-to-end metrics with ``--trace 0``, the per-layer ones with
``--trace 1``, names and units as declared in BENCHMARK.json.  The full
results, with provenance, go to bench/out/<workload>-s<seed>-t<trace>/.

``--smoke`` runs every workload at a tiny size in both modes and checks
correctness and every metric's name and unit; it gates no timing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import oracle
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
COLD_STARTS = 9
RUN_LIMIT_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
COLD_START = "import sys; from steinsurf.cli import main; sys.exit(main(['--help']))"


class BenchError(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


def cold_starts(env: dict) -> list[float]:
    """Wall times of fresh interpreters running ``steinsurf --help``; the
    first, which fills the file cache, is dropped."""
    times = []
    for _ in range(COLD_STARTS + 1):
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", COLD_START], env=env, cwd=ROOT,
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, timeout=60)
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise BenchError(f"cold start failed: {proc.stderr.decode()[-500:]}")
    return times[1:]


def run_worker(scenario: Path, warmup: Path, seconds: float, trace: int, out: Path,
               env: dict, deadline: float) -> dict:
    cmd = [sys.executable, str(BENCH / "worker.py"), "--scenario", str(scenario),
           "--warmup", str(warmup), "--seconds", str(seconds), "--trace", str(trace),
           "--out", str(out)]
    proc = subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE)
    try:
        _, err = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError("worker timed out") from None
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}: {err.decode()[-2000:]}")
    return json.loads((out / "worker.json").read_text())


def percentile_summary(times: list[float]) -> dict:
    """Median, the highest whole percentile with at least ten samples
    beyond it (None below 11 samples), and the sample count."""
    n = len(times)
    pct = int(100 * (1 - 10 / n)) if n >= 11 else None
    value = None
    if pct:
        value = statistics.quantiles(times, n=100, method="inclusive")[pct - 1]
    return {"median": statistics.median(times), "percentile": pct,
            "percentile_value": value, "samples": n}


def provenance(seed: int) -> dict:
    def read(path: str) -> str | None:
        try:
            return Path(path).read_text().strip()
        except OSError:
            return None

    git_sha = None
    if shutil.which("git"):
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        lines = proc.stdout.split()
        if proc.returncode == 0 and len(lines) == 2 and Path(lines[0]) == ROOT:
            git_sha = lines[1]
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    cpu_model = None
    for line in (read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            cpu_model = line.split(":", 1)[1].strip()
            break
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind = read(f"{index}/level"), read(f"{index}/type")
        if level in ("2", "3") and kind in ("Unified", "Data"):
            caches[f"L{level}"] = read(f"{index}/size")
    return {
        "git_sha": git_sha,
        "src_sha256": digest.hexdigest(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "cache": caches,
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "thread_pools": {var: "1" for var in THREAD_VARS},
        "seed": seed,
    }


def check_reports(scenario: dict, worker: dict, out: Path) -> tuple[dict, int]:
    """Oracle failures of each distinct report, keyed by sha256, and the
    exit code the scenario should produce."""
    failures = {}
    expect_pass = True
    for sha, name in worker["reports"].items():
        text = (out / name).read_text()
        try:
            report = json.loads(text)
        except ValueError:
            failures[sha] = [f"not a JSON report: {text[-300:]}"] * len(scenario["tasks"])
            continue
        failures[sha], expect_pass = oracle.verify(scenario, report)
    return failures, 0 if expect_pass else 1


def declared_metrics() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }


def run(workload: str, seed: int, seconds: float, trace: int, size: str = "full") -> dict:
    """Run one workload and return the result line as a dict; the full
    results file is written beside the worker's outputs."""
    started = time.monotonic()
    if not (SRC / "steinsurf" / "cli.py").is_file():
        raise BenchError(f"steinsurf sources not found under {SRC}")
    tag = f"{workload}-s{seed}-t{trace}" + ("" if size == "full" else f"-{size}")
    out = OUT / tag
    if out.exists():
        shutil.rmtree(out)
    out.mkdir(parents=True)
    env = child_env()

    t0 = time.perf_counter()
    scenario = workloads.build(workload, seed, size)
    scenario_path = out / "scenario.json"
    scenario_path.write_text(json.dumps(scenario))
    warmup_path = out / "warmup.json"
    warmup_path.write_text(json.dumps(workloads.build(workload, seed, "tiny")))
    generate_s = time.perf_counter() - t0
    setup_times = [] if trace else cold_starts(env)

    worker = run_worker(scenario_path, warmup_path, seconds, trace, out, env,
                        started + RUN_LIMIT_S)
    passes = worker["passes"]

    failures, expected_code = check_reports(scenario, worker, out)
    n_tasks = len(scenario["tasks"])
    attempted = n_tasks * len(passes)
    failed = sum(min(len(failures[p["sha256"]]) + (p["exit_code"] != expected_code), n_tasks)
                 for p in passes)
    shas = {p["sha256"] for p in passes}
    deterministic = len(shas) == 1
    correct = failed == 0 and deterministic

    untraced = [p["seconds"] for p in passes if not p["traced"]]
    traced = [p["seconds"] for p in passes if p["traced"]]
    end_to_end = {
        "setup_s": statistics.median(setup_times) if setup_times else None,
        "run_s": statistics.median(untraced),
        "peak_rss_mb": worker["peak_rss_kb"] / 1024.0,
        "report_bytes": passes[0]["bytes"],
    }
    units = declared_metrics()[trace]
    if trace:
        layers = dict(worker["layers"])
        layers["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(untraced)
        metrics = {k: {"value": layers[k], "unit": u} for k, u in units.items()}
    else:
        metrics = {k: {"value": end_to_end[k], "unit": u} for k, u in units.items()}
    line = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}

    results = {
        "workload": workload,
        "size": size,
        "seconds": seconds,
        "trace": trace,
        "provenance": provenance(seed),
        "result": line,
        "fail_ratio": failed / attempted,
        "failures": {sha: msgs[:50] for sha, msgs in failures.items() if msgs},
        "expected_exit_code": expected_code,
        "deterministic": deterministic,
        "report_sha256": sorted(shas),
        "run_s": percentile_summary(untraced),
        "traced_run_s": percentile_summary(traced) if traced else None,
        "setup_s": {"samples": setup_times, "generate_s": generate_s},
        "end_to_end": end_to_end,
        "passes": passes,
    }
    if trace:
        results["per_layer"] = layers
    (out / "results.json").write_text(json.dumps(results, indent=1))
    return line


def smoke() -> int:
    """Every workload at tiny size, both modes; returns the exit code."""
    units = declared_metrics()
    bad = []
    for workload in workloads.GENERATORS:
        for trace in (0, 1):
            line = run(workload, 1, 0.5, trace, size="tiny")
            got = {k: v["unit"] for k, v in line["metrics"].items()}
            ok = line["correct"] and line["failed"] == 0 and got == units[trace]
            ok = ok and all(isinstance(v["value"], (int, float)) for v in line["metrics"].values())
            print(f"{workload} trace={trace}: {'ok' if ok else 'FAIL'} "
                  f"({line['attempted']} tasks attempted, {line['failed']} failed)")
            if not ok:
                bad.append((workload, trace, line))
    for item in bad:
        print(json.dumps(item), file=sys.stderr)
    return 1 if bad else 0


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(workloads.GENERATORS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args(argv)
    try:
        if args.smoke:
            return smoke()
        if args.workload is None:
            ap.error("--workload is required")
        line = run(args.workload, args.seed, args.seconds, args.trace)
    except (BenchError, OSError, subprocess.SubprocessError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
