"""The workload process: an untimed warm-up pass, then timed passes.

Each pass runs one scenario file through ``steinsurf.cli.main(["check",
path])`` with stdout captured, and starts only after the previous one has
ended.  Passes continue while the next one is expected to finish within
``--seconds`` (at least two run).  With ``--trace 1`` untraced and traced
passes alternate (at least one of each), so the tracing overhead is
measured in one process.

Writes ``worker.json`` (per-pass time, exit code, report sha256 and size,
peak RSS, per-layer metrics), the first report and any report that
differs from it, and with tracing ``spans.npz``, into ``--out``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import io
import json
import resource
import statistics
import sys
import time
import traceback
from contextlib import redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from steinsurf.cli import main  # noqa: E402


def run_pass(entry, scenario: str) -> tuple[float, int | None, str]:
    """Time one pass; a pass that raises reports exit code None and the
    traceback in place of the report, which fails every task."""
    gc.collect()
    buf = io.StringIO()
    with redirect_stdout(buf):
        t0 = time.perf_counter()
        try:
            code = entry(["check", scenario])
        except Exception:
            code = None
            print(traceback.format_exc())
        elapsed = time.perf_counter() - t0
    return elapsed, code, buf.getvalue()


def main_worker(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--scenario", required=True)
    ap.add_argument("--warmup", required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    out = Path(args.out)

    run_pass(main, args.warmup)
    tracer = None
    if args.trace:
        from tracer import Tracer, median_metrics

        tracer = Tracer()

    passes: list[dict] = []
    reports: dict[str, str] = {}
    layer_metrics: list[dict] = []
    kinds = [False, True] if tracer else [False]
    began = time.perf_counter()
    while True:
        if len(passes) >= 2:
            by_kind = [[p["seconds"] for p in passes if p["traced"] == k] for k in kinds]
            cycle = sum(statistics.median(t) for t in by_kind)
            if time.perf_counter() - began + cycle > args.seconds:
                break
        for traced in kinds:
            entry = tracer.begin_pass(main) if traced else main
            seconds, code, text = run_pass(entry, args.scenario)
            if traced:
                tracer.end_pass()
                layer_metrics.append(tracer.pass_metrics(len(tracer.pass_bounds) - 1))
            data = text.encode()
            sha = hashlib.sha256(data).hexdigest()
            if sha not in reports:
                reports[sha] = f"report-{len(reports)}.json"
                (out / reports[sha]).write_bytes(data)
            passes.append({"traced": traced, "seconds": seconds, "exit_code": code,
                           "sha256": sha, "bytes": len(data)})
            del text, data

    result = {
        "passes": passes,
        "reports": reports,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer:
        import numpy as np

        result["layers"] = median_metrics(layer_metrics)
        np.savez_compressed(out / "spans.npz", **tracer.arrays())
    (out / "worker.json").write_text(json.dumps(result, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main_worker())
