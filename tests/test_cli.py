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
        "report.json": "29916bfbe26e19d22715772f4da20dc88f85a953bc7f9edd1576dc5f0663e4fe",
        "report.csv": "2812fbb8f52818b45e6aebd0df57d96693fc1e9c50237b9f4c482594571a949b",
        "plot.dat": "33be48793728462168a28c1e9ab61c1263c492b372efd4a1773a366c59424657"}),
    "potential-suite": (0, {
        "report.json": "458647afc8eb0b7d8aa2eee74e58343f416c666f01112937e632478b53a7a464",
        "report.csv": "34bbdadcb45f97c0ad60df663aba02afe9af21cc036c08d685cf452533d7c81b",
        "plot.dat": "9789dc215afc5ccc427cde633ead28a9f71090514aa7f8b62283f367ab1f7e75"}),
    "hitting": (0, {
        "report.json": "a0f2c88a016a68a2b7a760b99cb4d2940161b3026a3610513aa3520df5dd1d78",
        "report.csv": "4af2c4fbe99b262807e1e63f2a70230dc9bd6292d58fee97264a0f4c1f2608e1",
        "plot.dat": "061a6f87e43f3cc7e93da8e486117c638de4edbfc0b8ad77a231ab1bbf5f41b0"}),
    "strike": (0, {
        "report.json": "b7dec46d4efe9046c17259f4433b229f9ae5a104551b730e9a85be5a380dbfb0",
        "report.csv": "a1f893d9b1f35a4f69935cc912be3e53a997bd4e5a6cfbf0d3a8f5b561c2d183",
        "plot.dat": "c649d5a0ae02af30617776a87e99f7f45720c4475699b04a7ed31a451c41aad6"}),
    "duality": (0, {
        "report.json": "aba10bff4a3d55c9f5f86cd735f7e564b31f9758852149ea96ce803cf12b9e40",
        "report.csv": "58f46d65a9c09e4c31e0d9e42c5539f8a34fde5769365dd96d754e0a7f222e2d",
        "plot.dat": "a0933ab73f693e13b1b946b6f73e504b0a73049ff80b873b443ee1af130f924a"}),
    "reversal": (0, {
        "report.json": "3f1670fab74396d5895b32efb2e9287a9d98cb756bd301a4fba01a5015b140a3",
        "report.csv": "7b7b486b270a207e805d993d7662e82efce9372c2606e9b1d29421230efa55cd",
        "plot.dat": "a4ed6a05e2de35b76389facdf78d53c3217590c4de8cd187da9c299b6f16898e"}),
}


@pytest.mark.parametrize("exp", list(TINY))
def test_artifact_bytes_pinned(tmp_path, exp):
    cfg = cli.parse_config(write(tmp_path, TINY[exp]))
    out = tmp_path / "out"
    code, pins = PINS[exp]
    assert cli.run(cfg, out_dir=out) == code
    assert {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
            for name in pins} == pins
