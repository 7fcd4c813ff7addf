import hashlib
import json

import pytest

from stablecond import cli


def write(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return path


MINIMAL_HITTING = """
experiment = hitting
alpha = 0.5
d = 2
caps = 1 0 : 3.141592653589793
x0 = 2 0
eps_grid = 0.2 0.1
n_paths = 2000
seed = 11
"""


def test_parse_minimal_defaults(tmp_path):
    cfg = cli.parse_config(write(tmp_path, MINIMAL_HITTING))
    assert cfg["experiment"] == "hitting"
    assert cfg["h_rule"] == 8.0          # default filled
    assert cfg["workers"] == 1
    assert cfg["r_far"] == 50.0
    assert cfg["seed"] == 11


def test_parse_truly_minimal(tmp_path):
    cfg = cli.parse_config(write(
        tmp_path, "experiment = hitting\nalpha = 0.5\nd = 2\nx0 = 2 0\n"))
    assert cfg["eps_grid"] == [0.2, 0.1, 0.05, 0.025]   # defaults filled
    assert cfg["out_dir"] == "results"


def test_parse_seed_from_entropy(tmp_path):
    text = MINIMAL_HITTING.replace("seed = 11\n", "")
    c1 = cli.parse_config(write(tmp_path, text, "a.cfg"))
    c2 = cli.parse_config(write(tmp_path, text, "b.cfg"))
    assert isinstance(c1["seed"], int)
    assert c1["seed"] != c2["seed"]      # drawn fresh, then recorded


def test_parse_errors_carry_line_numbers(tmp_path):
    path = write(tmp_path, "experiment = hitting\nbogus_key = 3\n")
    with pytest.raises(cli.ConfigError, match=r":2"):
        cli.parse_config(path)
    path2 = write(tmp_path, "experiment = hitting\nalpha == 0.5\n", "c.cfg")
    with pytest.raises(cli.ConfigError):
        cli.parse_config(path2)


def test_parse_eps_grid_must_decrease(tmp_path):
    bad = MINIMAL_HITTING.replace("eps_grid = 0.2 0.1", "eps_grid = 0.1 0.2")
    with pytest.raises(cli.ConfigError, match="strictly decreasing"):
        cli.parse_config(write(tmp_path, bad))


def test_unknown_experiment_lists_names(tmp_path):
    with pytest.raises(cli.ConfigError, match="specfun-suite"):
        cli.parse_config(write(tmp_path, "experiment = wat\n"))


def test_env_override(tmp_path, monkeypatch):
    monkeypatch.setenv("STABLECOND_N_PATHS", "123")
    cfg = cli.parse_config(write(tmp_path, MINIMAL_HITTING))
    assert cfg["n_paths"] == 123


def test_resolved_config_idempotent(tmp_path):
    cfg = cli.parse_config(write(tmp_path, MINIMAL_HITTING))
    out = tmp_path / "out"
    assert cli.run(cfg, out_dir=out) in (0, 2)
    resolved = out / "resolved-config.json"
    cfg2 = cli.parse_config(resolved)
    assert cfg2 == cfg


def test_run_writes_artifacts_and_reproduces(tmp_path):
    cfg = cli.parse_config(write(tmp_path, MINIMAL_HITTING))
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    cli.run(cfg, out_dir=out1)
    cli.run(cfg, out_dir=out2)
    for name in ("resolved-config.json", "report.json", "report.csv", "plot.dat"):
        assert (out1 / name).exists()
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    rows = (out1 / "report.csv").read_text().splitlines()
    assert rows[0] == "eps,p_hat,stderr,scaled,theory"
    assert len(rows) == 3


def test_run_worker_count_independence(tmp_path):
    cfg = cli.parse_config(write(tmp_path, MINIMAL_HITTING))
    outs = []
    for w in (1, 4, 8):
        out = tmp_path / f"w{w}"
        cfg_w = dict(cfg, workers=w)
        cli.run(cfg_w, out_dir=out)
        outs.append((out / "report.csv").read_bytes())
    assert outs[0] == outs[1] == outs[2]


def test_suite_experiments(tmp_path):
    for exp in ("specfun-suite", "potential-suite"):
        cfg = cli.parse_config(write(tmp_path, f"experiment = {exp}\n",
                                     f"{exp}.cfg"))
        out = tmp_path / exp
        assert cli.run(cfg, out_dir=out) == 0
        report = json.loads((out / "report.json").read_text())
        assert all(c["passed"] for c in report["checks"])


def test_main_exit_codes(tmp_path, capsys):
    bad = write(tmp_path, "experiment = nope\n", "bad.cfg")
    assert cli.main(["run", str(bad)]) == 1
    assert "valid names" in capsys.readouterr().err
    assert cli.main(["run", str(tmp_path / "missing.cfg")]) == 1
    good = write(tmp_path, MINIMAL_HITTING)
    code = cli.main(["run", str(good), "--out", str(tmp_path / "main_out"),
                     "--seed", "3", "--workers", "2"])
    assert code in (0, 2)
    resolved = json.loads((tmp_path / "main_out" / "resolved-config.json").read_text())
    assert resolved["seed"] == 3 and resolved["workers"] == 2


def test_duality_cli(tmp_path):
    cfg_text = """
experiment = duality
alpha = 0.5
d = 2
caps = 1 0 : 1.5707963267948966
window_f = 2 0 : 0.3
window_g = 0 2 : 0.3
t = 0.5
n_paths = 4000
seed = 5
"""
    cfg = cli.parse_config(write(tmp_path, cfg_text, "dual.cfg"))
    out = tmp_path / "dual"
    code = cli.run(cfg, out_dir=out)
    assert code in (0, 2)
    payload = json.loads((out / "report.json").read_text())
    assert set(payload) == {"lhs", "rhs", "t", "seed"}
    assert (out / "plot.dat").read_text().count(" ") == 2


def test_reversal_cli_always_succeeds(tmp_path):
    cfg_text = """
experiment = reversal
alpha = 0.5
d = 2
caps = 1 0 : 1.5707963267948966
n_paths = 1024
h = 0.02
seed = 5
"""
    cfg = cli.parse_config(write(tmp_path, cfg_text, "rev.cfg"))
    out = tmp_path / "rev"
    assert cli.run(cfg, out_dir=out) == 0
    payload = json.loads((out / "report.json").read_text())
    assert "agree_fraction" in payload
    # every cell is a plain number (numpy scalars once wrote "np.float64(...)")
    rows = (out / "report.csv").read_text().splitlines()[1:]
    rows += (out / "plot.dat").read_text().splitlines()
    assert len(rows) > 2
    for row in rows:
        for cell in row.replace(",", " ").split():
            float(cell)


HALF_CIRCLE = "1 0 : 1.5707963267948966"

# One small config per experiment, each a few seconds through ``cli.run``.
TINY = {
    "specfun-suite": "experiment = specfun-suite\nseed = 1\n",
    "potential-suite": "experiment = potential-suite\nseed = 1\n",
    "hitting": f"""
experiment = hitting
alpha = 0.5
d = 2
caps = {HALF_CIRCLE}
x0 = 2 0
eps_grid = 0.2 0.1 0.05
n_paths = 500
horizon = 5
seed = 12345
""",
    "strike": """
experiment = strike
alpha = 0.5
d = 2
caps = 1 0 : 3.141592653589793
subcaps = 1 0 : 0.39269908169872414
x0 = 2 0
eps_grid = 0.2 0.1
n_paths = 500
horizon = 5
seed = 41
""",
    "duality": f"""
experiment = duality
alpha = 0.5
d = 2
caps = {HALF_CIRCLE}
window_f = 2 0 : 0.3
window_g = 2 0.4 : 0.3
t = 0.5
n_paths = 256
seed = 5
""",
    "reversal": f"""
experiment = reversal
alpha = 0.5
d = 2
caps = {HALF_CIRCLE}
n_paths = 512
h = 0.02
seed = 5
""",
}


def test_reversal_horizon_is_used(tmp_path):
    # a configured horizon reaches the run; 0 (unset) keeps the default 30
    payloads = []
    for i, extra in enumerate(("", "horizon = 5\n")):
        cfg = cli.parse_config(write(tmp_path, TINY["reversal"] + extra))
        out = tmp_path / f"out{i}"
        assert cli.run(cfg, out_dir=out) == 0
        payloads.append((out / "report.json").read_bytes())
    assert payloads[0] != payloads[1]
    truncated = [json.loads(b)["horizon_truncated_fraction"] for b in payloads]
    assert truncated[1] > truncated[0]


@pytest.mark.parametrize("exp,line,match", [
    ("hitting", "n_paths = 0", "n_paths must be >= 1"),
    ("hitting", "n_paths = -5", "n_paths must be >= 1"),
    ("hitting", "eps_grid =", "eps_grid must not be empty"),
    ("hitting", "x0 =", "x0 must have d = 2 coordinates"),
    ("hitting", "x0 = 2 0 0", "x0 must have d = 2 coordinates"),
    ("strike", "x0 =", "x0 must have d = 2 coordinates"),
    ("strike", "x0 = 2", "x0 must have d = 2 coordinates"),
    ("duality", "h = 0.01", "duality draws X_t in one step and takes no h"),
    ("duality", "window_f = 2 : 0.3", "window_f center must have d = 2 coordinates"),
    ("duality", "window_g = 2 0.4 0 : 0.3",
     "window_g center must have d = 2 coordinates"),
])
def test_unrunnable_config_rejected(tmp_path, capsys, exp, line, match):
    # a later line overrides an earlier one
    path = write(tmp_path, TINY[exp] + line + "\n")
    out = tmp_path / "out"
    assert cli.main(["run", str(path), "--out", str(out)]) == 1
    assert match in capsys.readouterr().err
    assert not out.exists()      # rejected while parsing, before the run


# Exit code and sha256 of report.json, report.csv and plot.dat of each TINY
# config.  Every change that keeps the random streams keeps these bytes; a
# deliberate change of streams updates the pins and names the change in
# CHANGES.md.
PINS = {
    "specfun-suite": (0, {
        "report.json": "9b8252eb9d98a0981d4692a073e87f00a82c30b21443ca5d73d77105388d4ff4",
        "report.csv": "e80e6e1759f6ea1c172297b042283a7fd9fe1c0f47458f5fb4adebc15cbbcc9d",
        "plot.dat": "33be48793728462168a28c1e9ab61c1263c492b372efd4a1773a366c59424657"}),
    "potential-suite": (0, {
        "report.json": "4eb2eb218a99f5df682a5d2adb8eaff77e2fe6d588124668c87d691887c2a0a5",
        "report.csv": "30dd7d61653a9cc285412afdf7998dbf0b03bbd242ff875fa908c278abc1ef08",
        "plot.dat": "9789dc215afc5ccc427cde633ead28a9f71090514aa7f8b62283f367ab1f7e75"}),
    "hitting": (0, {
        "report.json": "385a65b2af0664833aadd64be5e6c089b95e140941c0413b8a7beffc1d7522d7",
        "report.csv": "9696eb931c8e549bf4a185a8eead724649babf03457378c7046d12871db93f03",
        "plot.dat": "cafab934a7b214e16ed2f404d89e435b8f6fdf2a41aa4891722c84e6e8eed0ca"}),
    "strike": (0, {
        "report.json": "5841bc02d073971ce2faaf9b61701a09da0bcca0ca78653c826cb3032745315d",
        "report.csv": "19b2033a59f77b127de3347012fa9d3077a9a891f2d9415603a338ce9ea1523d",
        "plot.dat": "cf5b403d4da1aafae8250eb813f39ef415895ac91098e3bfcadfaa191d791730"}),
    "duality": (0, {
        "report.json": "94cd363eb4dd88d3c1f34046e991f8c646b3840aa5f46a9f718f2973ac7244ef",
        "report.csv": "a4c2bd17846eb077affd2d2b6fe86c35d50c8ee42bb380e7536e0946c44b6607",
        "plot.dat": "adc2a8cc0b9a04ec203d279440dd4d023392aa04db11f11fde793db84089c057"}),
    "reversal": (0, {
        "report.json": "2b2f4938031d0317a18cb1571a02f7f24ccb7f3c747cff947cba76a11c1fc185",
        "report.csv": "7c8c110d96d3571cbbc7a77ba3332709aeb8cf74260a98aad9c2c7a118b6b218",
        "plot.dat": "cbb05d455a76f3d8622a5cd23b942db4b337226b3e449e46a1d9b1978f5164d2"}),
}


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


def test_report_json_is_strict(tmp_path):
    # a 40-path reversal occupies no bin (its agree fraction is 0/0), and a
    # strike level far from the target has no outer hit: both are null
    texts = {
        "reversal": TINY["reversal"].replace("n_paths = 512", "n_paths = 40"),
        "strike": TINY["strike"].replace("x0 = 2 0", "x0 = 40 0")
                  .replace("n_paths = 500", "n_paths = 20"),
    }
    data = {}
    for exp, text in texts.items():
        cfg = cli.parse_config(write(tmp_path, text, f"{exp}.cfg"))
        out = tmp_path / exp
        cli.run(cfg, out_dir=out)
        data[exp] = json.loads((out / "report.json").read_text(),
                               parse_constant=_reject_constant)
    assert data["reversal"]["occupied_bins"] == 0
    assert data["reversal"]["agree_fraction"] is None
    est = data["strike"]["estimates"][0]
    assert data["strike"]["extras"]["degenerate_eps"] == [0.2, 0.1]
    assert est["p_hat"] is est["stderr"] is est["scaled"] is None
    assert data["strike"]["extras"]["ever_hit_ratio"] == [None, None]


@pytest.mark.parametrize("exp", list(TINY))
def test_artifact_bytes_pinned(tmp_path, exp):
    cfg = cli.parse_config(write(tmp_path, TINY[exp]))
    out = tmp_path / "out"
    code, pins = PINS[exp]
    assert cli.run(cfg, out_dir=out) == code
    assert {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
            for name in pins} == pins
