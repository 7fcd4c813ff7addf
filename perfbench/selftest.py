"""Self-test of the benchmark at tiny sizes: ``python3 perfbench/run.py --selftest``.

1. Every workload, untraced and traced, emits every metric BENCHMARK.json
   names, with its unit.
2. The checkers are not vacuous: a deliberately wrong reference or report
   value fed to a workload's own ``check`` is counted as a failure.

Tiny Monte Carlo calls stop their paths early, so their estimates are not
expected to pass the gates; only the emitted metrics are tested there.
"""

from __future__ import annotations

import copy
import json
import shutil

import workloads


def _metrics_emitted(run_workload, result_line, spec) -> list[str]:
    problems = []
    for name in workloads.WORKLOADS:
        for trace in (False, True):
            record = run_workload(name, 1, 0.0, trace, size="tiny",
                                  min_calls=1, setup_procs=1)
            line = result_line(record, spec)
            wanted = spec["per_layer"] if trace else spec["end_to_end"]
            for m in wanted:
                got = line["metrics"].get(m["name"])
                if got is None or got["unit"] != m["unit"] \
                        or not isinstance(got["value"], (int, float)):
                    problems.append(f"{name} trace={int(trace)}: {m['name']}")
    return problems


def _wrong_references(work) -> list[str]:
    """Each corruption must turn a passing check into a failing one."""
    problems = []
    wl = workloads.make("theory", "tiny", work / "theory")
    inputs = wl.inputs(1)
    raw = wl.call(inputs)
    refs = wl.references(inputs)
    if wl.check(inputs, raw, refs).failures:
        problems.append("theory: correct references reported as failures")
    draw = next(i for i, d in enumerate(inputs["draws"]) if d["alpha"] < 1.0)
    for key, bump in (("gauss_2f1", 1e-9), ("full_sphere", 1e-9),
                      ("interval", 1e-5), ("plane_shell", 1e-7)):
        bad = copy.deepcopy(refs)
        if key == "gauss_2f1":
            bad[draw][key][0] *= 1.0 + bump
        else:
            bad[draw][key] *= 1.0 + bump
        if not wl.check(inputs, raw, bad).failures:
            problems.append(f"theory: wrong {key} reference passed")

    wl = workloads.make("duality", "tiny", work / "duality")
    inputs = wl.inputs(1)
    code = wl.call(inputs)
    path = wl.work_dir / "out" / "report.json"
    report = json.loads(path.read_text())
    for what, edit in (
            ("rhs far from lhs", lambda r: r["rhs"].update(
                value=r["lhs"]["value"] + 1e-6
                + 100.0 * (r["lhs"]["stderr"] + r["rhs"]["stderr"]))),
            ("non-finite value", lambda r: r["lhs"].update(value=float("nan")))):
        bad = copy.deepcopy(report)
        edit(bad)
        path.write_text(json.dumps(bad))
        if not wl.check(inputs, code, None).failures:
            problems.append(f"duality: {what} passed")
    if not wl.check(inputs, 1, None).failures:
        problems.append("duality: cli exit code 1 passed")
    return problems


def main(run_workload, result_line, spec, out_dir) -> int:
    work = out_dir / "selftest"
    try:
        results = {"metrics emitted": _metrics_emitted(run_workload, result_line, spec),
                   "wrong references fail": _wrong_references(work)}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for test, problems in results.items():
        print(f"[{'FAIL' if problems else 'PASS'}] {test}")
        for p in problems:
            print(f"    {p}")
    return 1 if any(results.values()) else 0
