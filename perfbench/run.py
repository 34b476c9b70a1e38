"""zoneinvest benchmark: one workload per command, run from the repository root.

    python3 perfbench/run.py --workload cr_h7 --seed 0 --seconds 40 --trace 0

Workloads (see BENCHMARK.json for why each exists): ``cr_h7``, ``cr_rnn_h7``,
``rollout_h5``, or ``all`` to run the three in turn.  Each is a closed loop
with one client: one policy or rollout call at a time, ``workers=1``, BLAS
pinned to one thread.

``--trace 0`` times the workload untraced and prints the end-to-end metrics.
``--trace 1`` alternates untraced and traced calls on the first instance and
prints the per-layer metrics of the first traced call, plus the tracing
overhead (median traced minus median untraced call time).  Every run checks
each call's output (against recorded outputs at seed 0, by invariants
elsewhere), writes a result file under ``perfbench/results/`` and prints, as
its last line, one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  It exits with 1 if any call failed or gave a wrong output, and
with 2 if the library sources are not found under ``src/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
WORKLOAD_NAMES = ("cr_h7", "cr_rnn_h7", "rollout_h5")
SETUP_REPEATS = 7
DEADLINE_S = 170.0  # whole run, per workload; the caller allows 180
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class BenchError(RuntimeError):
    pass


def git_commit(root: Path) -> str | None:
    """HEAD of ``root/.git`` read from its files; None outside a git checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    for var in BLAS_ENV:
        env[var] = "1"
    return env


def run_worker(args: list[str], deadline: float) -> dict:
    """Run worker.py in a fresh interpreter and parse its JSON line."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before starting a worker")
    try:
        proc = subprocess.run([sys.executable, str(HERE / "worker.py"), *args],
                              cwd=ROOT, env=child_env(), capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker {' '.join(args)} timed out") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"worker {' '.join(args)} exited {proc.returncode}:\n"
                         f"{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def declared_metrics() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {0: spec["end_to_end"], 1: spec["per_layer"]}


def end_to_end(workload, seed, seconds, deadline):
    setups = [run_worker(["setup", "--workload", workload, "--seed", str(seed)],
                         deadline)["setup_s"] for _ in range(SETUP_REPEATS)]
    out = run_worker(["measure", "--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds)], deadline)
    ok = [c for c in out["calls"] if not c["problems"]]
    walls = [c["wall_s"] for c in ok]
    metrics = {}
    if walls:
        metrics = {
            "wall_s": statistics.fmean(walls),
            "orderings_per_s": sum(c["info"]["evaluated_count"] for c in ok) / sum(walls),
            "peak_rss_mb": out["peak_rss_mb"],
            "setup_s": statistics.median(setups),
        }
    extra = {"setup_samples_s": setups, "wall_samples_s": walls,
             "wall_median_s": statistics.median(walls) if walls else None}
    return metrics, out["calls"], out, extra


def traced(workload, seed, seconds, spans_file, deadline):
    out = run_worker(["trace", "--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--spans", str(spans_file)],
                     deadline)
    plain = [c["wall_s"] for c in out["plain"]]
    traced_walls = [c["wall_s"] for c in out["traced"]]
    metrics = dict(out["layers"])
    metrics["trace.wall_s"] = out["traced"][0]["wall_s"]
    metrics["trace.overhead_s"] = (statistics.median(traced_walls)
                                   - statistics.median(plain))
    metrics["trace.accounted_frac"] = out["accounted_s"] / metrics["trace.wall_s"]
    extra = {"spans": out["spans"], "plain_wall_samples_s": plain,
             "traced_wall_samples_s": traced_walls}
    return metrics, out["plain"] + out["traced"], out, extra


def run_workload(workload: str, seed: int, seconds: int, trace: int) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    results_dir = HERE / "results"
    results_dir.mkdir(exist_ok=True)
    stem = f"{workload}_seed{seed}_trace{trace}"
    load_start = os.getloadavg()
    if trace:
        values, calls, out, extra = traced(
            workload, seed, seconds, results_dir / f"SPANS_{stem}.csv.gz", deadline)
    else:
        values, calls, out, extra = end_to_end(workload, seed, seconds, deadline)
    failed = sum(1 for c in calls if c["problems"])

    declared = declared_metrics()[trace]
    if failed == 0:
        missing = [m["name"] for m in declared if m["name"] not in values]
        if missing:
            raise BenchError(f"metrics not computed: {missing}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in declared if m["name"] in values}
    # evaluated_count of the first instance; result_rel_err and gap_pct
    # exist only for the reference input (seed 0)
    info = {"calls": len(calls), "failed_frac": failed / len(calls),
            **calls[0]["info"]}
    doc = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "correct": failed == 0, "attempted": len(calls), "failed": failed,
        "metrics": metrics, "info": info, "extra": extra, "calls": calls,
        "env": {
            **out["env"],
            "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "loadavg_start": load_start,
            "loadavg_end": os.getloadavg(),
            "python": platform.python_version(),
            "blas_env": {var: "1" for var in BLAS_ENV},
            "git_commit": git_commit(ROOT),
            "platform": platform.platform(),
        },
    }
    (results_dir / f"BENCH_{stem}.json").write_text(json.dumps(doc, indent=1) + "\n")

    for m in declared:
        if m["name"] in values:
            print(f"{workload:>10}  {m['name']:<44} {values[m['name']]:>14.6g} "
                  f"{m['unit']:<6} ({m['better']} is better)")
    for key, val in info.items():
        print(f"{workload:>10}  {key:<44} {val!r}")
    for c in calls:
        for problem in c["problems"]:
            print(f"{workload:>10}  FAILED offset {c['offset']}: {problem}",
                  file=sys.stderr)
    return doc


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")
    if not (ROOT / "src" / "zoneinvest" / "__init__.py").is_file():
        print(f"no zoneinvest sources under {ROOT / 'src'}; run from the "
              "repository root", file=sys.stderr)
        return 2

    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    try:
        docs = [run_workload(w, args.seed, args.seconds, args.trace) for w in names]
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    if len(docs) == 1:
        metrics = docs[0]["metrics"]
    else:
        metrics = {f"{d['workload']}.{k}": v for d in docs for k, v in d["metrics"].items()}
    failed = sum(d["failed"] for d in docs)
    print(json.dumps({"correct": failed == 0,
                      "attempted": sum(d["attempted"] for d in docs),
                      "failed": failed, "metrics": metrics}))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
