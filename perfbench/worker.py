"""One benchmark process; ``run.py`` starts it in a fresh interpreter so that
import cost and peak RSS belong to one workload alone.

    worker.py setup   --workload W --seed S
        time the imports plus set-up of the workload's first instance
    worker.py measure --workload W --seed S --seconds N
        run untraced calls on successive instances for about N seconds
    worker.py trace   --workload W --seed S --seconds N --spans FILE
        alternate untraced and traced calls on the first instance for about
        N seconds; write the spans to FILE

Prints one JSON object on stdout.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import ctypes  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

import numpy as np  # noqa: E402

from workloads import OFFSETS_PER_SEED, WORKLOADS  # noqa: E402


def blas_threads():
    """Thread count reported by the OpenBLAS that numpy loaded, if found."""
    with open("/proc/self/maps") as fh:
        libs = {ln.split()[-1] for ln in fh if "openblas" in ln.lower()}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": blas_threads()}


def setup(args):
    WORKLOADS[args.workload].setup(args.seed * OFFSETS_PER_SEED)
    return {"setup_s": time.perf_counter() - T_START}


def _run_call(wl, inst, offset):
    """Time one call and check its output; a raised exception is a failure."""
    t0 = time.perf_counter()
    try:
        out = wl.call(inst, offset)
    except Exception as exc:  # counted as a failed call, not fatal
        wall = time.perf_counter() - t0
        problems, info = [f"{type(exc).__name__}: {exc}"], {}
    else:
        wall = time.perf_counter() - t0
        problems, info = wl.check(inst, out, offset)
    return {"offset": offset, "wall_s": wall, "problems": problems, "info": info}


def _peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def measure(args):
    """Untraced calls on successive instances until the next call would pass
    --seconds (at least one)."""
    wl = WORKLOADS[args.workload]
    calls = []
    start = time.perf_counter()
    for i in itertools.count():
        offset = args.seed * OFFSETS_PER_SEED + i
        calls.append(_run_call(wl, wl.setup(offset), offset))
        if time.perf_counter() - start + calls[-1]["wall_s"] > args.seconds:
            break
    return {"calls": calls, "peak_rss_mb": _peak_rss_mb(), "env": environment()}


def trace(args):
    """Alternate untraced and traced calls on the seed's first instance until
    the next pair would pass --seconds (at least one pair).  Layer metrics
    come from the first traced call; every span is written to --spans."""
    from tracing import Tracer, summarize
    wl = WORKLOADS[args.workload]
    offset = args.seed * OFFSETS_PER_SEED
    tracer = Tracer()
    with tracer:
        inst = wl.setup(offset)
    plain, traced = [], []
    layers = None
    start = time.perf_counter()
    while True:
        plain.append(_run_call(wl, inst, offset))
        root = len(tracer.spans)
        with tracer:
            traced.append(_run_call(wl, inst, offset))
        if layers is None:
            # the check after the call adds spans outside the root; they
            # are excluded by summarize
            layers, accounted = summarize(tracer.spans, root)
        if time.perf_counter() - start + plain[-1]["wall_s"] + traced[-1]["wall_s"] \
                > args.seconds:
            break
    tracer.write(args.spans)
    return {"plain": plain, "traced": traced, "layers": layers,
            "accounted_s": accounted, "spans": len(tracer.spans),
            "peak_rss_mb": _peak_rss_mb(), "env": environment()}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("mode", choices=("setup", "measure", "trace"))
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--spans")
    args = ap.parse_args()
    out = {"setup": setup, "measure": measure, "trace": trace}[args.mode](args)
    json.dump(out, sys.stdout)
    sys.stdout.write("\n")


if __name__ == "__main__":
    main()
