"""Run one stablecond benchmark workload and print its metrics.

    python3 perfbench/run.py --workload hitting-sphere --seed 1 --seconds 50 --trace 0
    python3 perfbench/run.py --selftest

Run from the repository root.  The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}.  With
``--trace 0`` the metrics are the end-to-end metrics of BENCHMARK.json,
measured untraced; with ``--trace 1`` they are its per-layer metrics, from
calls made with every public function of the package wrapped in a span.
The full record of the run (provenance, per-call results, every metric)
is written to ``.perfbench_out/``, and a traced run also writes its spans
there.

A run measures closed-loop calls, one after another, until ``--seconds``
have passed and at least three calls are done; call i uses the i-th
per-call seed derived from ``--seed``.  An untraced run also times a
fixed reference computation between its calls (reference.py) and reports
the median call time in units of the median reference time.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

MIN_CALLS = 3
REF_EVERY_S = 1.0   # call time between two passes of the reference
SETUP_PROCS = 5
TRACE_PAIRS = 2
W2 = 2   # workers of the parallel call; the reference machine has 2 CPUs
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# spans whose counts must repeat exactly for one call seed
EXACT_COUNTS = (
    "simulate.sample_increment.calls", "simulate.sample_increment.draws",
    "potential.sphere_harmonic_many.points", "specfun.gauss_2f1.calls",
    "simulate.nonfinite_draws", "potential.quad_warnings")


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


# -- provenance ----------------------------------------------------------------

def _read(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError:
        return ""


def _blas_threads():
    """Thread count of the OpenBLAS that numpy loaded, when it can be asked."""
    import ctypes
    import glob

    import numpy as np
    libs = glob.glob(str(Path(np.__file__).parent.parent / "numpy.libs" / "*openblas*"))
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _source_sha256() -> str:
    import hashlib
    h = hashlib.sha256()
    for path in sorted((SRC / "stablecond").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        res = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return res.stdout.strip() or None


def provenance() -> dict:
    import numpy as np
    import scipy
    cpu = next((line.split(":", 1)[1].strip()
                for line in _read("/proc/cpuinfo").splitlines()
                if line.startswith("model name")), platform.processor())
    return {"nproc": os.cpu_count(), "cpu_model": cpu,
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "blas_threads": _blas_threads(),
            "git_commit": _git_commit(), "source_sha256": _source_sha256()}


def loadavg():
    fields = _read("/proc/loadavg").split()
    return [float(x) for x in fields[:3]] if fields else None


# -- one call ------------------------------------------------------------------

def run_one(wl, seed: int, workers: int = 1, tracer=None) -> dict:
    """Make inputs, time one call (in a span when traced), check it."""
    from workloads import count_warnings
    rec = {"seed": seed, "workers": workers, "traced": tracer is not None,
           "failures": []}
    inputs = wl.inputs(seed, workers)
    rec["items"] = wl.items(inputs)
    try:
        refs = wl.references(inputs)
        if tracer is not None:
            tracer.install()
            rec["span_lo"], nonfinite0 = tracer.mark(), tracer.nonfinite_draws
        timed = count_warnings if tracer is None \
            else tracer.wrap(count_warnings, "bench.call")
        t0 = time.perf_counter()
        try:
            raw, rec["quad_warnings"] = timed(wl.call, inputs)
            rec["call_s"] = time.perf_counter() - t0
        finally:
            if tracer is not None:
                tracer.uninstall()
                rec["span_hi"] = tracer.mark()
                rec["nonfinite_draws"] = tracer.nonfinite_draws - nonfinite0
        outcome = wl.check(inputs, raw, refs)
    except Exception:  # a failed call is counted, and the run goes on
        rec["failures"].append(traceback.format_exc(limit=4))
        return rec
    rec["failures"] += outcome.failures
    rec.update(outcome.info, checked_se=outcome.checked_se,
               hit_frac=outcome.hit_frac, censored_frac=outcome.censored_frac)
    return rec


def measure_setup(name: str, seed: int, work: Path, n_procs: int) -> dict:
    samples, failures = [], []
    for k in range(n_procs):
        cmd = [sys.executable, str(HERE / "setup_probe.py"), name, str(seed),
               str(work / f"setup{k}")]
        try:
            res = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                 timeout=30)
        except subprocess.TimeoutExpired:
            failures.append("set-up probe timed out")
            continue
        lines = res.stdout.strip().splitlines()
        if res.returncode != 0 or not lines:
            failures.append(f"set-up probe exit {res.returncode}: {res.stderr[-500:]}")
            continue
        samples.append(json.loads(lines[-1])["setup_s"])
    return {"samples": samples, "failures": failures}


# -- metrics -------------------------------------------------------------------

def tail_percentile(values: list[float]):
    """Highest whole percentile with at least ten samples beyond it."""
    n = len(values)
    if n < 20:
        return None
    pct = math.floor(100.0 * (n - 10) / n)
    return {"percentile": pct, "n": n,
            "value": statistics.quantiles(values, n=100, method="inclusive")[pct - 1]}


def end_to_end(name: str, calls: list[dict], setup: dict,
               ref_s: list[float]) -> tuple[dict, dict]:
    """Every end-to-end metric of one untraced run; BENCHMARK.json picks
    the gated ones.  ``call_ref_p50`` is the median call time in units of
    the run's median reference time (see reference.py)."""
    ok = [c for c in calls if "call_s" in c]
    call_s = [c["call_s"] for c in ok]
    m = {
        "setup_s": statistics.median(setup["samples"]) if setup["samples"] else None,
        "call_s_p50": statistics.median(call_s) if call_s else None,
        "ref_s_p50": statistics.median(ref_s),
        "items_per_s": statistics.median(c["items"] / c["call_s"] for c in ok)
        if call_s else None,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    m["call_ref_p50"] = m["call_s_p50"] / m["ref_s_p50"] if call_s else None
    # metrics that apply to some workloads only, kept in the record
    extra = {"call_s_n": len(call_s), "call_s_tail": tail_percentile(call_s)}
    if name == "theory":
        extra["evals_per_s"] = m["items_per_s"]
    else:
        extra["paths_per_s"] = m["items_per_s"]
        txv = [c["call_s"] * c["checked_se"] ** 2 for c in ok
               if c.get("checked_se") is not None]
        extra["time_x_variance"] = statistics.median(txv) if txv else None
        extra["cli_verdict_misses"] = sum(c.get("cli_exit") == 2 for c in ok)
    return m, extra


def layer_metrics(tracer, traced: list[dict], untraced: list[dict],
                  idle: float) -> dict:
    """Per-layer metrics: counts from the first traced call, times and
    shares summed over every traced call."""
    first, merged = None, {}
    for c in traced:
        summ = tracer.summary(c["span_lo"], c["span_hi"])
        if first is None:
            first = summ
        for key, row in summ.items():
            acc = merged.setdefault(key, dict.fromkeys(row, 0))
            for k, v in row.items():
                acc[k] += v
    n = len(traced)
    call_ns = merged["bench.call"]["total_ns"]

    def f(name, key, table=None):
        return (merged if table is None else table).get(name, {}).get(key, 0)

    def per(num, den, scale=1.0):
        return num / den * scale if den else None

    def self_ns(prefix):
        return sum(r["self_ns"] for k, r in merged.items() if k.startswith(prefix))

    inc, mem = "simulate.sample_increment", "geometry.in_target_many"
    sh, ed = "potential.sphere_harmonic_many", "geometry.euclidean_distance_to_shell_many"
    g2f1 = "specfun.gauss_2f1"
    cond_ns = self_ns("condition.")
    m = {
        f"{inc}.calls": f(inc, "calls", first),
        f"{inc}.draws": f(inc, "work", first),
        f"{inc}.draws_per_call": per(f(inc, "work", first), f(inc, "calls", first)) or 0.0,
        f"{inc}.ns_per_draw": per(f(inc, "total_ns"), f(inc, "work")),
        f"{inc}.self_s": f(inc, "self_ns") / n / 1e9,
        "simulate.nonfinite_draws": traced[0]["nonfinite_draws"],
        f"{mem}.points": f(mem, "work", first),
        f"{mem}.ns_per_point": per(f(mem, "total_ns"), f(mem, "work")),
        f"{mem}.self_s": f(mem, "self_ns") / n / 1e9,
        "condition.self_s": cond_ns / n / 1e9,
        "condition.self_ns_per_block_step": per(cond_ns, f(inc, "calls")),
        "condition.self_ns_per_path_step": per(cond_ns, f(inc, "work")),
        "condition.hit_frac": traced[0].get("hit_frac", 0.0),
        "condition.censored_frac": traced[0].get("censored_frac", 0.0),
        "condition.w2_idle_frac": idle,
        f"{sh}.calls": f(sh, "calls", first),
        f"{sh}.points": f(sh, "work", first),
        f"{sh}.us_per_point": per(f(sh, "total_ns"), f(sh, "work"), 1e-3),
        f"{sh}.self_s": f(sh, "self_ns") / n / 1e9,
        f"{ed}.points": f(ed, "work", first),
        f"{ed}.self_s": f(ed, "self_ns") / n / 1e9,
        "geometry.quadrature_nodes.calls": f("geometry.quadrature_nodes", "calls", first),
        "geometry.quadrature_nodes.self_s": f("geometry.quadrature_nodes", "self_ns") / n / 1e9,
        "potential.plane_harmonic.calls": f("potential.plane_harmonic", "calls", first),
        "potential.plane_harmonic.self_s": f("potential.plane_harmonic", "self_ns") / n / 1e9,
        f"{g2f1}.calls": f(g2f1, "calls", first),
        f"{g2f1}.us_per_call": per(f(g2f1, "total_ns"), f(g2f1, "calls"), 1e-3),
        f"{g2f1}.self_s": f(g2f1, "self_ns") / n / 1e9,
        "specfun.hyp2f1_series.calls": f("specfun.hyp2f1_series", "calls", first),
        "specfun.hyp2f1_series.self_s": f("specfun.hyp2f1_series", "self_ns") / n / 1e9,
        "potential.quad_warnings": traced[0]["quad_warnings"],
        "cli.run.self_s": f("cli.run", "self_ns") / n / 1e9,
        "traced_call_s_p50": statistics.median(c["call_s"] for c in traced),
        "trace_overhead_frac": (statistics.median(c["call_s"] for c in traced)
                                / statistics.median(c["call_s"] for c in untraced) - 1.0),
    }
    for fn in ("shell_potential", "interval_potential", "plane_shell_potential",
               "riesz_ball_integral"):
        name = f"potential.{fn}"
        m[f"{name}.calls"] = f(name, "calls", first)
        m[f"{name}.us_per_call"] = per(f(name, "total_ns"), f(name, "calls"), 1e-3)
    # shares of traced call time: self time per layer, inclusive per function
    for layer in ("simulate", "geometry", "condition", "potential", "specfun",
                  "cli", "checks", "bench"):
        m[f"{layer}.self_frac"] = self_ns(layer + ".") / call_ns
    for name in (inc, mem, sh, ed, "geometry.quadrature_nodes",
                 "potential.plane_harmonic", g2f1, "specfun.hyp2f1_series"):
        m[f"{name}.total_frac"] = f(name, "total_ns") / call_ns
    return m


# -- one run -------------------------------------------------------------------

def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 size: str = "full", min_calls: int = MIN_CALLS,
                 setup_procs: int = SETUP_PROCS) -> dict:
    import workloads
    from reference import reference_s
    from spans import Tracer

    work = OUT / f"work-{os.getpid()}"
    seeds = workloads.call_seeds(seed)
    record = {"workload": name, "seed": seed, "seconds": seconds,
              "trace": int(trace), "size": size, "provenance": provenance(),
              "loadavg_start": loadavg()}
    wl = workloads.make(name, size, work / "calls")
    warm = workloads.make(name, "setup", work / "warm")
    try:
        warm.call(warm.inputs(seeds[0]))   # fill the caches before timing
        calls: list[dict] = []
        parallel = None
        idle = 0.0
        if not trace:
            setup = measure_setup(name, seeds[0], work, setup_procs)
            ref_s, since_ref = [reference_s()], 0.0
            start = time.perf_counter()
            while len(calls) < min_calls or time.perf_counter() - start < seconds:
                calls.append(run_one(wl, seeds[len(calls)]))
                since_ref += calls[-1].get("call_s", 0.0)
                if since_ref >= REF_EVERY_S:
                    ref_s.append(reference_s())
                    since_ref = 0.0
            metrics, extra = end_to_end(name, calls, setup, ref_s)
            record.update(setup=setup, applicable=extra, reference_s=ref_s)
            failures = len(setup["failures"])
        else:
            tracer = Tracer()
            traced, untraced = [], []
            start = time.perf_counter()
            i = 0
            # pairs alternate which side runs first
            while i < TRACE_PAIRS or time.perf_counter() - start < seconds:
                for with_trace in ((False, True) if i % 2 == 0 else (True, False)):
                    c = run_one(wl, seeds[i], tracer=tracer if with_trace else None)
                    (traced if with_trace else untraced).append(c)
                i += 1
            calls = traced + untraced
            recheck = run_one(wl, seeds[0], tracer=tracer)
            calls.append(recheck)
            if name != "theory":
                before = resource.getrusage(resource.RUSAGE_CHILDREN)
                parallel = run_one(wl, seeds[0], workers=W2)
                after = resource.getrusage(resource.RUSAGE_CHILDREN)
                if "call_s" in parallel:
                    cpu = (after.ru_utime - before.ru_utime
                           + after.ru_stime - before.ru_stime)
                    idle = 1.0 - cpu / (W2 * parallel["call_s"])
                    record["applicable"] = {
                        "paths_per_s_w2": parallel["items"] / parallel["call_s"]}
            metrics = {}
            if all("call_s" in c for c in calls):
                metrics = layer_metrics(tracer, traced, untraced, idle)
                again = layer_metrics(tracer, [recheck], untraced, idle)
                record["count_mismatch"] = {
                    k: [metrics[k], again[k]] for k in EXACT_COUNTS
                    if metrics[k] != again[k]}
            failures = 1 if record.get("count_mismatch") else 0
            OUT.mkdir(exist_ok=True)
            tracer.save(OUT / f"{name}-seed{seed}.spans.npz")
            record["layers"] = metrics
        if parallel is not None:
            calls.append(parallel)
            first = calls[0].get("report_sha256")
            if parallel.get("report_sha256") != first:
                parallel["failures"].append("report at workers=2 differs from workers=1")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for c in calls:
        c.pop("span_lo", None), c.pop("span_hi", None)
    record.update(calls=calls, loadavg_end=loadavg(), metrics=metrics)
    record["attempted"] = len(calls)
    record["failed"] = sum(bool(c["failures"]) for c in calls) + failures
    record["failed_frac"] = record["failed"] / record["attempted"]
    return record


def result_line(record: dict, spec: dict) -> dict:
    wanted = spec["per_layer"] if record["trace"] else spec["end_to_end"]
    metrics = {}
    for m in wanted:
        value = record["metrics"].get(m["name"])
        if value is None:
            raise RuntimeError(f"metric {m['name']} was not measured")
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    return {"correct": record["failed"] == 0, "attempted": record["attempted"],
            "failed": record["failed"], "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=50.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true",
                    help="run every workload at a tiny size and test the checker")
    args = ap.parse_args(argv)
    if not (SRC / "stablecond" / "__init__.py").is_file():
        print(f"error: no stablecond sources under {SRC}", file=sys.stderr)
        return 2
    for key in [k for k in os.environ if k.startswith("STABLECOND_")]:
        del os.environ[key]   # config overrides would change the workloads
    # one BLAS thread: calls run at workers = 1, and on a small shared
    # machine a second BLAS thread made duality calls slower and noisier
    for key in BLAS_THREAD_VARS:
        os.environ[key] = "1"
    sys.path.insert(0, str(SRC))
    import workloads
    if args.selftest:
        import selftest
        return selftest.main(run_workload, result_line, load_spec(), OUT)
    if args.workload not in workloads.WORKLOADS:
        ap.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    record = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1, default=str) + "\n")
    line = result_line(record, load_spec())
    print(f"record: {path.relative_to(ROOT)}")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
