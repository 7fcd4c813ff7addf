"""The benchmark's workloads: inputs from a seed, one call, and its checks.

Each workload turns a per-call seed into inputs (``inputs``), runs one
experiment through the package's public entry points (``call``, the only
timed part) and checks what the call produced (``check``).  The Monte
Carlo workloads run ``cli.run`` on a resolved config, as the ``stablecond
run`` command does; ``theory`` runs the two suite configs through
``cli.run`` and then a seeded sweep of public ``specfun``/``potential``
functions.

Why these four:

- ``hitting-sphere`` is the README's CLI hitting run: the stop-on-entry
  stepping loop on a shell target, where ``simulate`` and ``geometry``
  dominate.
- ``strike-plane`` is criterion 10's strike run: d = 3 increments, slab
  membership for two targets per step and ``plane_harmonic`` quadrature.
- ``duality`` is criterion 9's duality run: nearly all its time is in
  ``sphere_harmonic_many`` kernel sums, one ``simulate`` step per path.
- ``theory`` is the deterministic half: ``specfun`` and the quadrature
  potentials, with no Monte Carlo layer.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import warnings
from contextlib import redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy.integrate import IntegrationWarning

from stablecond import cli
from stablecond import potential as pot
from stablecond import specfun as sf
from stablecond.potential import StableParams

HALF_CIRCLE = "1 0 : 1.5707963267948966"

# call sizes: "full" is measured, "setup" is the cold call of a fresh
# process, "tiny" serves the self-test
SIZES = {
    "hitting-sphere": {"full": 8192, "setup": 64, "tiny": 64},
    "strike-plane": {"full": 8192, "setup": 64, "tiny": 64},
    "duality": {"full": 16384, "setup": 64, "tiny": 256},
    "theory": {"full": 16, "setup": 1, "tiny": 2},
}
# the setup and tiny calls stop hitting and strike paths early (duality has
# no horizon): they exist to pay the fixed costs of a call
SHORT_HORIZON = 0.1


def call_seeds(workload_seed: int, n: int = 256) -> list[int]:
    """The per-call seeds of a run, derived from the workload seed."""
    state = np.random.SeedSequence(workload_seed).generate_state(n, np.uint64)
    return [int(s) % 2 ** 63 for s in state]


@dataclass
class Outcome:
    """What the checks found in one call."""

    failures: list[str] = field(default_factory=list)
    info: dict = field(default_factory=dict)
    checked_se: float | None = None   # standard error of the checked estimate
    hit_frac: float = 0.0
    censored_frac: float = 0.0

    def require(self, ok: bool, what: str):
        if not ok:
            self.failures.append(what)


def _nonfinite_fields(obj, path="") -> list[str]:
    if isinstance(obj, bool) or obj is None or isinstance(obj, str):
        return []
    if isinstance(obj, (int, float)):
        return [] if math.isfinite(obj) else [path]
    if isinstance(obj, dict):
        return [p for k, v in obj.items() for p in _nonfinite_fields(v, f"{path}.{k}")]
    if isinstance(obj, list):
        return [p for i, v in enumerate(obj) for p in _nonfinite_fields(v, f"{path}[{i}]")]
    return [path]


def run_cli(cfg: dict, out: Path) -> int:
    """``cli.run`` with its console lines kept off the benchmark's stdout."""
    with redirect_stdout(io.StringIO()):
        return cli.run(cfg, out_dir=str(out))


class Workload:
    name: str
    config_text: str = ""

    def __init__(self, size: str, work_dir: Path):
        self.size = size
        self.n = SIZES[self.name][size]
        self.work_dir = Path(work_dir)
        self.work_dir.mkdir(parents=True, exist_ok=True)
        self.cfg = None
        if self.config_text:
            text = self.config_text + f"n_paths = {self.n}\nseed = 0\n"
            if size != "full":
                text += f"horizon = {SHORT_HORIZON}\n"
            path = self.work_dir / f"{self.name}.cfg"
            path.write_text(text)
            self.cfg = cli.parse_config(path)

    def inputs(self, seed: int, workers: int = 1):
        return dict(self.cfg, seed=seed, workers=workers)

    def items(self, inputs) -> int:
        """Paths simulated, or evaluations made, by one call."""
        raise NotImplementedError

    def call(self, inputs):
        return run_cli(inputs, self.work_dir / "out")

    def check(self, inputs, raw, refs=None) -> Outcome:
        raise NotImplementedError

    def references(self, inputs):
        return None


class _MonteCarlo(Workload):
    items_per_path = 1

    def items(self, inputs) -> int:
        return self.n * self.items_per_path

    def check(self, inputs, raw, refs=None) -> Outcome:
        out = Outcome()
        report_path = self.work_dir / "out" / "report.json"
        blob = report_path.read_bytes()
        report = json.loads(blob)
        out.info["report_sha256"] = hashlib.sha256(blob).hexdigest()
        out.info["cli_exit"] = raw
        # exit 2 is the CLI's statistical verdict; see ``gate``
        out.require(raw in (0, 2), f"cli exit code {raw}")
        bad = _nonfinite_fields(report)
        out.require(not bad, f"non-finite report fields {bad[:5]}")
        if not bad:
            self.gate(report, out)
        return out

    def gate(self, report: dict, out: Outcome):
        raise NotImplementedError


# The CLI's verdicts are statistical tests sized for ~100,000 paths.  At
# the benchmark's call sizes they say no by chance on a few calls in a
# hundred, so a call fails only when the gap exceeds twice the CLI's own
# tolerance; the CLI's verdict itself is recorded per call.
VERDICT_SLACK = 2.0


class HittingSphere(_MonteCarlo):
    name = "hitting-sphere"
    config_text = ("experiment = hitting\nalpha = 0.5\nd = 2\n"
                   f"caps = {HALF_CIRCLE}\nx0 = 2 0\neps_grid = 0.2 0.1 0.05\n")
    items_per_path = 3   # one path set per eps level

    def gate(self, report, out):
        est = report["estimates"]
        theory = report["theory"]["value"]
        alpha = report["params"]["alpha"]
        s = [e["scaled"] for e in est]
        gap = s[-1] / theory - 1.0
        change = abs(s[-1] - s[-2]) / abs(s[-1]) if s[-1] else math.inf
        out.checked_se = est[-1]["stderr"] * est[-1]["eps"] ** (alpha - 1.0)
        out.info.update(theory_gap_rel=gap, last_change_rel=change,
                        theory_gap_z=(s[-1] - theory) / out.checked_se
                        if out.checked_se else None)
        out.require(abs(gap) <= VERDICT_SLACK * 0.3,
                    f"scaled {s[-1]:.5g} vs theory {theory:.5g}")
        out.require(change <= VERDICT_SLACK * 0.2,
                    f"last two scaled values differ by {change:.1%}")
        out.hit_frac = float(np.mean([e["p_hat"] for e in est]))
        out.censored_frac = float(np.mean(
            report["extras"]["horizon_censored_fraction"]))


class StrikePlane(_MonteCarlo):
    name = "strike-plane"
    config_text = ("experiment = strike\nalpha = 0.5\nd = 3\n"
                   "plane_normal = 0 0 1\nplane_shape = ball\n"
                   "plane_center = 0 0\nplane_radius = 1.0\n"
                   "sub_plane_center = 0 0\nsub_plane_radius = 0.5\n"
                   "x0 = 0 0 1.5\neps_grid = 0.1 0.05\n")
    items_per_path = 2

    def gate(self, report, out):
        est = report["estimates"][-1]
        theory = report["theory"]["value"]
        gap = est["p_hat"] - theory
        tol = max(3.0 * est["stderr"], 0.05)
        out.checked_se = est["stderr"]
        out.info.update(theory_gap=gap, theory_gap_z=gap / est["stderr"]
                        if est["stderr"] else None)
        out.require(abs(gap) <= VERDICT_SLACK * tol,
                    f"strike ratio {est['p_hat']:.4f} vs theory {theory:.4f}")
        # hits of the outer target are the paths the ratio uses; the strike
        # report carries no horizon-censoring count
        outer = [h[1] for h in report["extras"]["hit_counts"]]
        out.hit_frac = sum(outer) / (self.n * len(outer))


class Duality(_MonteCarlo):
    name = "duality"
    config_text = ("experiment = duality\nalpha = 0.5\nd = 2\n"
                   f"caps = {HALF_CIRCLE}\nwindow_f = 0 1.7 : 0.3\n"
                   "window_g = 1.3 1.3 : 0.3\nt = 0.5\n")
    items_per_path = 2   # the lhs and rhs path sets

    def gate(self, report, out):
        lhs, rhs = report["lhs"], report["rhs"]
        gap = lhs["value"] - rhs["value"]
        se = math.hypot(lhs["stderr"], rhs["stderr"])
        out.checked_se = se
        out.info.update(theory_gap=gap, theory_gap_z=gap / se if se else None)
        out.require(abs(gap) <= VERDICT_SLACK * 4.0 * se,
                    f"duality sides {lhs['value']:.5g} vs {rhs['value']:.5g}")


class Theory(Workload):
    """Suite runs plus a sweep; ``n`` is the number of sweep draws."""

    name = "theory"
    SUITES = ("specfun-suite", "potential-suite")

    def __init__(self, size, work_dir):
        super().__init__(size, work_dir)
        self.suite_cfgs = {}
        for exp in self.SUITES:
            path = self.work_dir / f"{exp}.cfg"
            path.write_text(f"experiment = {exp}\nseed = 0\n")
            self.suite_cfgs[exp] = cli.parse_config(path)

    def items(self, inputs) -> int:
        # 4 gauss_2f1 + 4 more calls per draw; 2 more below alpha = 1
        return sum(8 + 2 * (dr["alpha"] < 1.0) for dr in inputs["draws"])

    def inputs(self, seed: int, workers: int = 1):
        """Seeded draws: alpha in [0.05, 0.95] (draw 0 is the alpha = 1 log
        case), d in {2, 3}, eps in [1e-4, 1e-1], points across the shell."""
        rng = np.random.default_rng(seed)
        draws = []
        for j in range(self.n):
            alpha = 1.0 if j == 0 else float(rng.uniform(0.05, 0.95))
            d = int(rng.integers(2, 4))
            eps = float(10.0 ** rng.uniform(-4.0, -1.0))
            radius = float(rng.uniform(0.1, 5.0))
            if abs(radius - 1.0) < 1e-3:
                radius += 2e-3
            draws.append({
                "alpha": alpha, "d": d, "eps": eps,
                "z": [float(z) for z in rng.uniform(0.0, 0.999, 4)],
                "radius": radius,
                "shell_x": 1.0 + eps * float(rng.uniform(-1.0, 1.0)),
                "interval_x": float(rng.uniform(-1.0, 1.0)),
                "height": eps * float(rng.uniform(-1.0, 1.0)),
                "ball_b": float(rng.uniform(0.0, 3.0)),
                "ball_r": float(rng.uniform(0.5, 2.0)),
            })
        return {"seed": seed, "draws": draws}

    def call(self, inputs):
        codes = {exp: run_cli(dict(cfg, seed=inputs["seed"]),
                              self.work_dir / exp)
                 for exp, cfg in self.suite_cfgs.items()}
        values = []
        for dr in inputs["draws"]:
            p = StableParams(dr["alpha"], dr["d"])
            a, d = dr["alpha"], dr["d"]
            v = {"gauss_2f1": [sf.gauss_2f1((d - a) / 2.0, (2.0 - a) / 2.0,
                                            d / 2.0, z) for z in dr["z"]],
                 "full_sphere": pot.full_sphere_harmonic_closed(dr["radius"], p),
                 "shell": pot.shell_potential(dr["shell_x"], dr["eps"], p),
                 "ball": pot.riesz_ball_integral(dr["ball_b"], dr["ball_r"], p),
                 "constants": pot.constants(p)}
            if a < 1.0:
                v["interval"] = pot.interval_potential(dr["interval_x"], a)
                v["plane_shell"] = pot.plane_shell_potential(dr["height"],
                                                             dr["eps"], p)
            values.append(v)
        return {"codes": codes, "values": values}

    def references(self, inputs):
        """Independent references: mpmath 2F1 and Beta at 30 digits."""
        import mpmath
        refs = []
        with mpmath.workdps(30):
            for dr in inputs["draws"]:
                a, d, r = dr["alpha"], dr["d"], dr["radius"]
                hyp = [float(mpmath.hyp2f1((d - a) / 2, (2 - a) / 2, d / 2.0, z))
                       for z in dr["z"]]
                hi, lo = max(r, 1.0), min(r, 1.0)
                full = float(mpmath.mpf(hi) ** (a - d) * mpmath.hyp2f1(
                    (d - a) / 2, (2 - a) / 2, d / 2.0, (mpmath.mpf(lo) / hi) ** 2))
                refs.append({"gauss_2f1": hyp, "full_sphere": full,
                             "interval": float(mpmath.beta(a / 2, 1 - a / 2)),
                             "plane_shell": 1.0})
        return refs

    def check(self, inputs, raw, refs=None) -> Outcome:
        out = Outcome()
        for exp, code in raw["codes"].items():
            out.require(code == 0, f"{exp} exit code {code}")
        worst = {"gauss_2f1": 0.0, "full_sphere": 0.0, "interval": 0.0,
                 "plane_shell": 0.0}
        shell_dev = 0.0
        for dr, v, ref in zip(inputs["draws"], raw["values"], refs):
            table = v["constants"]
            nums = [*v["gauss_2f1"], v["full_sphere"], v["shell"], v["ball"],
                    v.get("interval", 0.0), v.get("plane_shell", 0.0),
                    *(x for x in vars(table).values() if isinstance(x, float))]
            bad = [x for x in nums if not math.isfinite(x)]
            out.require(not bad, f"non-finite value at alpha={dr['alpha']:.4f}")
            for got, want in zip(v["gauss_2f1"], ref["gauss_2f1"]):
                worst["gauss_2f1"] = max(worst["gauss_2f1"], abs(got / want - 1.0))
            worst["full_sphere"] = max(worst["full_sphere"],
                                       abs(v["full_sphere"] / ref["full_sphere"] - 1.0))
            if "interval" in v:
                worst["interval"] = max(worst["interval"],
                                        abs(v["interval"] / ref["interval"] - 1.0))
                worst["plane_shell"] = max(worst["plane_shell"],
                                           abs(v["plane_shell"] - ref["plane_shell"]))
            shell_dev = max(shell_dev, abs(v["shell"] - 1.0))
        # tolerances: 2F1 at 1e-10 relative, the interval potential at its
        # criterion-4 constancy 1e-6, the slab potential within 1e-8 of 1
        for key, tol in (("gauss_2f1", 1e-10), ("full_sphere", 1e-10),
                         ("interval", 1e-6), ("plane_shell", 1e-8)):
            out.require(worst[key] <= tol, f"{key} error {worst[key]:.3g} > {tol:g}")
        out.info.update({f"max_err_{k}": v for k, v in worst.items()},
                        max_shell_potential_dev=shell_dev)
        return out


WORKLOADS = {w.name: w for w in (HittingSphere, StrikePlane, Duality, Theory)}


def make(name: str, size: str, work_dir: Path) -> Workload:
    return WORKLOADS[name](size, work_dir)


def count_warnings(fn, *args):
    """Run fn(*args); return (result, number of scipy IntegrationWarnings)."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = fn(*args)
    return result, sum(issubclass(w.category, IntegrationWarning) for w in caught)
