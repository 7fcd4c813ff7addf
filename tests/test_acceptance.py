"""Acceptance suite: every numbered criterion at its stated tolerance.

Each test prints one PASS/FAIL line (run pytest with -s to see them all
together).  Monte Carlo criteria use fixed master seeds, so the whole
suite is reproducible bit for bit.
"""

import json
import math
import warnings

import numpy as np
import pytest
from scipy import stats

from stablecond import checks as chk
from stablecond import cli
from stablecond import condition as cond
from stablecond import geometry as ge
from stablecond import simulate as sim
from stablecond.potential import StableParams
from stablecond.specfun import gauss_2f1, hyp2f1_log_parts, hyp2f1_near_one_parts

P = StableParams(0.5, 2)
FULL2 = ge.CapSet.full_sphere(2)
HALF2 = ge.CapSet.single((1.0, 0.0), math.pi / 2)


def _report(k: int, ok: bool, detail: str):
    print(f"\ncriterion {k:02d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {k}: {detail}"


def test_criterion_01_appendix_identity_suite():
    results = chk.specfun_suite()
    detail = "; ".join(f"{r.name}: {'ok' if r.passed else r.detail}"
                       for r in results)
    _report(1, all(r.passed for r in results), detail)


def test_criterion_02_boundary_limit_residuals():
    eps_grid = (1e-2, 1e-3, 1e-4)
    all_ok = True
    lines = []
    for alpha in (0.3, 0.7, 1.0):
        for d in (2, 3):
            a, b, c = (d - alpha) / 2.0, (2.0 - alpha) / 2.0, d / 2.0
            sups = []
            for eps in eps_grid:
                rs = 1.0 - eps * np.linspace(1.0, 1e-3, 200)
                if alpha < 1.0:
                    cs, cr = hyp2f1_near_one_parts(a, b, c)
                    res = [abs(gauss_2f1(a, b, c, r * r)
                               - cs * (1 - r * r) ** (alpha - 1.0) - cr)
                           for r in rs]
                else:
                    a1, b1 = hyp2f1_log_parts(a, b)
                    res = [abs(gauss_2f1(a, b, c, r * r)
                               + a1 * math.log(1 - r * r) - b1)
                           for r in rs]
                sups.append(max(res))
            ok = all(y < x for x, y in zip(sups, sups[1:]))
            all_ok &= ok
            lines.append(f"(a={alpha}, d={d}): sup residuals "
                         + "->".join(f"{s:.2e}" for s in sups))
    _report(2, all_ok, "; ".join(lines))


def test_criterion_03_shell_potential_desk_scale():
    # max|U-1| over 21 shell points falls along eps 1e-1 ... 1e-4 and ends
    # below 0.05 (alpha 0.5, d 2); the published plateau is printed
    r = chk.check_shell_potential_trend()
    _report(3, r.passed, r.detail)


def test_criterion_04_interval_potential_constancy():
    # max/min - 1 <= 1e-6 over 41 points and endpoint value B(a/2, 1-a/2)
    # within 1e-8, at alpha 0.3, 0.5, 0.7
    r = chk.check_interval_potential()
    _report(4, r.passed, r.detail)


def test_criterion_05_sampler_validity():
    n = 100_000
    all_ok = True
    lines = []
    angles = (0.0, 2.0 * math.pi / 3.0, 4.0 * math.pi / 3.0)
    for i, alpha in enumerate((0.5, 1.0, 1.5)):
        p = StableParams(alpha, 2)
        rng = sim.rng_for_block(500 + i, 0)
        d = sim.sample_increment(p, 1.0, rng, n)
        worst_z = 0.0
        for mag in (0.5, 1.0, 2.0):
            for ang in angles:
                theta = mag * np.array([math.cos(ang), math.sin(ang)])
                c = np.cos(d @ theta)
                z = (c.mean() - math.exp(-mag ** alpha)) \
                    / (c.std() / math.sqrt(n))
                worst_z = max(worst_z, abs(z))
        ok = worst_z <= 4.0
        # isotropy: one-dimensional projections before/after a rotation
        rot = np.array([[math.cos(0.9), -math.sin(0.9)],
                        [math.sin(0.9), math.cos(0.9)]])
        d2 = sim.sample_increment(p, 1.0, rng, n)
        iso = stats.ks_2samp(d[:, 0], (d2 @ rot.T)[:, 0])
        # self-similarity: c * increment(h = c^-alpha) vs increment(1)
        d3 = 2.0 * np.linalg.norm(sim.sample_increment(p, 2.0 ** -alpha, rng, n),
                                  axis=1)
        ss = stats.ks_2samp(np.linalg.norm(d2, axis=1), d3)
        ok &= iso.pvalue > 0.01 and ss.pvalue > 0.01
        all_ok &= ok
        lines.append(f"alpha={alpha}: max |z|={worst_z:.2f}, isotropy p={iso.pvalue:.3f}, "
                     f"self-similarity p={ss.pvalue:.3f}")
    _report(5, all_ok, "; ".join(lines))


def test_criterion_06_occupation_consistency():
    n = 20_000
    gaps, ses = [], []
    est_0 = None
    theory = None
    for j, h in enumerate((0.04, 0.02)):
        est, theory = cond.occupation_check(P, (3.0, 0.0), (0.0, 0.0), 0.5,
                                            n, h=h, seed=600 + j)
        gaps.append(abs(est.value - theory))
        ses.append(est.stderr)
        if j == 1:
            est_0 = est
    within = gaps[-1] <= 0.2 * theory
    # refinement trend with a Monte Carlo noise allowance
    shrink = gaps[1] <= gaps[0] + 2.0 * math.hypot(*ses)
    ok = within and shrink
    _report(6, ok, f"occupation {est_0.value:.5f}+-{est_0.stderr:.5f} vs theory "
            f"{theory:.5f} (gap {gaps[1] / theory:.1%}, tol 20%); gaps at "
            f"h=0.04 -> 0.02: {gaps[0]:.2e} -> {gaps[1]:.2e}")


def test_criterion_07_hitting_trend():
    rep = cond.hitting_experiment(P, HALF2, (2.0, 0.0), [0.2, 0.1, 0.05],
                                  n_paths=100_000, seed=700).data
    s = [e["scaled"] for e in rep["estimates"]]
    theory = rep["theory"]["value"]
    published = rep["theory"]["alternatives"]["published"]
    change = abs(s[-1] - s[-2]) / abs(s[-1])
    envelope = abs(s[-1] - theory) / theory
    ok = change < 0.2 and envelope < 0.3
    _report(7, ok, f"scaled sequence {['%.4f' % v for v in s]}, last-two change "
            f"{change:.1%} (<20%), final vs limit {theory:.4f}: "
            f"off by {envelope:.1%} (<30%); published-normalisation limit "
            f"{published:.4f} (ratio {s[-1] / published:.2f})")


def test_criterion_08_strike_point_law():
    quarter = ge.CapSet.single((1.0, 0.0), math.pi / 4)  # quarter of the circle
    rep = cond.strike_experiment(P, FULL2, quarter, (2.0, 0.0), [0.05],
                                 n_paths=100_000, seed=800).data
    est = rep["estimates"][0]
    tol = max(3.0 * est["stderr"], 0.05)
    ok1 = abs(est["p_hat"] - rep["theory"]["value"]) <= tol
    rep_same = cond.strike_experiment(P, FULL2, FULL2, (2.0, 0.0), [0.1],
                                      n_paths=5_000, seed=801).data
    same = rep_same["estimates"][0]["p_hat"]
    ok2 = same == 1.0
    rep_half = cond.strike_experiment(P, FULL2, HALF2, (0.0, 0.0), [0.1],
                                      n_paths=100_000, seed=802).data
    e3 = rep_half["estimates"][0]
    ok3 = abs(e3["p_hat"] - 0.5) <= 3.0 * e3["stderr"]
    _report(8, ok1 and ok2 and ok3,
            f"quarter-arc ratio {est['p_hat']:.4f}+-{est['stderr']:.4f} vs theory "
            f"{rep['theory']['value']:.4f} (tol {tol:.4f}); S'=S ratio "
            f"{same}; origin/half ratio {e3['p_hat']:.4f}+-{e3['stderr']:.4f} "
            f"(ever-hit column {rep_half['extras']['ever_hit_ratio'][0]:.4f})")


def test_criterion_09_weak_duality():
    pairs = [
        (cond.Window((2.0, 0.0), 0.3), cond.Window((0.0, 2.0), 0.3)),
        (cond.Window((1.6, 0.0), 0.3), cond.Window((-1.6, 0.0), 0.3)),
        (cond.Window((0.0, 1.7), 0.3), cond.Window((1.3, 1.3), 0.3)),
    ]
    all_ok = True
    lines = []
    for i, (wf, wg) in enumerate(pairs):
        for j, t in enumerate((0.25, 0.5)):
            rep = cond.duality_experiment(P, HALF2, wf, wg, t, 100_000,
                                          seed=900 + 10 * i + j).data
            lhs, rhs = rep["lhs"]["value"], rep["rhs"]["value"]
            tol = 4.0 * math.hypot(rep["lhs"]["stderr"], rep["rhs"]["stderr"])
            ok = abs(lhs - rhs) <= tol
            all_ok &= ok
            lines.append(f"pair{i + 1} t={t}: |{lhs:.3g}-{rhs:.3g}|"
                         f"{'<=' if ok else '>'}{tol:.2g}")
    _report(9, all_ok, "; ".join(lines))


def test_criterion_10_plane_analogues():
    p3 = StableParams(0.5, 3)
    disk = ge.PlanarSet.ball((0.0, 0.0, 1.0), (0.0, 0.0), 1.0)
    sub_disk = ge.PlanarSet.ball((0.0, 0.0, 1.0), (0.0, 0.0), 0.5)
    x = (0.0, 0.0, 1.5)
    # (i) slab equilibrium potential is 1 within 1e-8 (d 3 and 4);
    # published normalisation reported
    slab = chk.check_plane_shell_potential()
    # (ii) hitting trend and envelope against the equilibrium constant,
    # with the published and interval-corrected ratios surfaced
    rep = cond.hitting_experiment(p3, disk, x, [0.2, 0.1, 0.05],
                                  n_paths=100_000, seed=1000).data
    s = [e["scaled"] for e in rep["estimates"]]
    theory, alt = rep["theory"]["value"], rep["theory"]["alternatives"]
    change = abs(s[-1] - s[-2]) / abs(s[-1])
    envelope = abs(s[-1] - theory) / theory
    ok_h = change < 0.2 and envelope < 0.3
    ratio_pub = s[-1] / alt["published"]
    ratio_interval = s[-1] / alt["interval_normalised"]
    # (iii) strike ratio on the sub-disk
    rep_s = cond.strike_experiment(p3, disk, sub_disk, x, [0.05],
                                   n_paths=100_000, seed=1001).data
    est = rep_s["estimates"][0]
    tol = max(3.0 * est["stderr"], 0.05)
    ok_s = abs(est["p_hat"] - rep_s["theory"]["value"]) <= tol
    _report(10, slab.passed and ok_h and ok_s,
            f"slab potential {slab.detail}; hitting scaled {['%.4f' % v for v in s]} vs eq limit "
            f"{theory:.4f} (change {change:.1%}, envelope {envelope:.1%}; "
            f"ratio to published {ratio_pub:.3f}, to interval-corrected "
            f"{ratio_interval:.3f}); strike {est['p_hat']:.4f}+-{est['stderr']:.4f} "
            f"vs {rep_s['theory']['value']:.4f} (tol {tol:.4f})")


def test_criterion_11_reversal_diagnostic():
    rep = cond.reversal_experiment(P, HALF2, r_exit=2.0, n_paths=100_000,
                                   h=0.02, seed=1100, horizon=25.0).data
    frac = rep["agree_fraction"]
    structural = rep["first_reversed_point_inside_fraction"] == 1.0 \
        and rep["occupied_bins"] >= 4
    detail = (f"{rep['agree_bins']}/{rep['occupied_bins']} bins within 4*SE "
              f"(fraction {frac:.2f}); first reversed point always inside")
    if frac < 0.8:
        warnings.warn(f"reversal diagnostic below threshold: {detail}")
        _report(11, structural, detail + " [diagnostic below 0.8: warning only]")
    else:
        _report(11, structural, detail)


def test_criterion_12_infrastructure_reproducibility(tmp_path):
    cfg_text = """
experiment = hitting
alpha = 0.5
d = 2
caps = 1 0 : 1.5707963267948966
x0 = 2 0
eps_grid = 0.2 0.1
n_paths = 4000
seed = 1200
"""
    path = tmp_path / "repro.cfg"
    path.write_text(cfg_text)
    blobs = {}
    for tag, workers in (("w1", 1), ("w4", 4), ("w8", 8), ("rerun", 1)):
        out = tmp_path / tag
        cfg = cli.parse_config(path)
        cfg["workers"] = workers
        cli.run(cfg, out_dir=out)
        blobs[tag] = ((out / "report.csv").read_bytes(),
                      (out / "report.json").read_bytes())
    same_workers = blobs["w1"] == blobs["w4"] == blobs["w8"]
    same_rerun = blobs["w1"] == blobs["rerun"]
    _report(12, same_workers and same_rerun,
            f"byte-identical reports across workers 1/4/8: {same_workers}; "
            f"across reruns: {same_rerun}")
