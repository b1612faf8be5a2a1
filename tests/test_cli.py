import json

import pytest

from wave4d.cli import ConfigError, load_config, main, resolve


def test_states_suite_artifacts_and_reproducibility(tmp_path):
    out1 = tmp_path / "run1"
    out2 = tmp_path / "run2"
    assert main(["--out", str(out1), "states"]) == 0
    assert main(["--out", str(out2), "states"]) == 0
    for name in ("states_resolved_config.json", "states_results.json",
                 "states_summary.json", "states_residuals.csv"):
        assert (out1 / name).exists()
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    summary = json.loads((out1 / "states_summary.json").read_text())
    assert summary["all_passed"]
    cfg = json.loads((out1 / "states_resolved_config.json").read_text())
    assert cfg["kelvin_points"] == 1000  # defaults echoed explicitly


def test_flag_overrides_config_file(tmp_path):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({"states": {"kelvin_points": 200}}))
    out = tmp_path / "out"
    assert main(["--config", str(cfg_file), "--out", str(out),
                 "states", "--kelvin_points", "50"]) == 0
    cfg = json.loads((out / "states_resolved_config.json").read_text())
    assert cfg["kelvin_points"] == 50
    # file beats default when no flag is given
    merged = resolve("states", {"states": {"kelvin_points": 200}}, {})
    assert merged["kelvin_points"] == 200


def test_invalid_config_lists_offending_keys(tmp_path):
    cfg_file = tmp_path / "bad.json"
    cfg_file.write_text(json.dumps({"states": {"bogus_key": 1}}))
    with pytest.raises(ConfigError, match="bogus_key"):
        load_config(str(cfg_file))
    assert main(["--config", str(cfg_file), "--out",
                 str(tmp_path / "o"), "states"]) == 2


def test_unknown_suite_rejected(tmp_path):
    with pytest.raises(SystemExit):
        main(["--out", str(tmp_path), "nonsense"])


def test_states_rejects_an_empty_radial_range(tmp_path, capsys):
    """The residual grid [0, r_max] needs r_max > 0; at r_max = -5 it
    would take its residuals at negative radii.  The run ends before any
    work, with one message line and exit status 2."""
    out = tmp_path / "o"
    assert main(["--out", str(out), "states", "--r_max", "-5"]) == 2
    assert "r_max = -5.0" in capsys.readouterr().err
    assert not out.exists()


def test_report_rendering_idempotent(tmp_path):
    out = tmp_path
    summary = dict(suite="demo", criteria=[
        dict(name="always good", value=1.0, threshold=0.0, kind="ge",
             passed=True)], all_passed=True)
    (out / "demo_summary.json").write_text(json.dumps(summary))
    assert main(["--out", str(out), "report"]) == 0
    first = (out / "report.txt").read_bytes()
    assert main(["--out", str(out), "report"]) == 0
    assert (out / "report.txt").read_bytes() == first
    assert b"demo" in first and b"PASS" in first

    bad = dict(suite="demo2", criteria=[
        dict(name="always bad", value=1.0, threshold=2.0, kind="ge",
             passed=False)], all_passed=False)
    (out / "demo2_summary.json").write_text(json.dumps(bad))
    assert main(["--out", str(out), "report"]) == 1
    assert b"FAIL" in (out / "report.txt").read_bytes()


def test_empty_report_is_success(tmp_path):
    assert main(["--out", str(tmp_path / "empty"), "report"]) == 0


def test_schema_covers_all_suites(tmp_path):
    """A config file holding every suite's defaults loads as it is."""
    from wave4d.cli import DEFAULTS, SUITES

    for s in SUITES:
        assert s in DEFAULTS
    cfg_file = tmp_path / "defaults.json"
    cfg_file.write_text(json.dumps(DEFAULTS))
    assert load_config(str(cfg_file)) == DEFAULTS


def test_shoot_suite_artifacts(tmp_path):
    """The shoot suite reports both halves of criterion 11, its 7-point
    sweep over the default bracket and the radial grid that made it."""
    import numpy as np

    assert main(["--out", str(tmp_path), "shoot"]) == 0
    summary = json.loads((tmp_path / "shoot_summary.json").read_text())
    rows = {c["name"]: c for c in summary["criteria"]}
    assert set(rows) == {"optimum persists >= 2x bracket ends",
                         "best interior sweep exit above both bracket ends"}
    assert all(c["passed"] for c in rows.values())
    res = json.loads((tmp_path / "shoot_results.json").read_text())
    taus = [r["exit_tau"] for r in res["sweep"]]
    assert [r["s"] for r in res["sweep"]] == list(np.linspace(-6e-3, 6e-3, 7))
    unimodal = rows["best interior sweep exit above both bracket ends"]
    assert unimodal["value"] == max(taus[1:-1])
    assert unimodal["threshold"] == max(res["edge_exit"]) \
        == max(taus[0], taus[-1])
    assert res["gain"] == rows["optimum persists >= 2x bracket ends"]["value"]
    assert res["grid"] == dict(kind="radial", points=201, h=0.12, r_max=24.0)


def test_interactions_suite(tmp_path):
    out = tmp_path / "ia"
    code = main(["--out", str(out), "interactions",
                 "--times", "10,20,40", "--nodes", "6", "--r_max", "30"])
    assert code == 0
    rows = (out / "interactions_g1.csv").read_text().splitlines()
    assert rows[0] == "t,value,fitted_model,residual"
    assert len(rows) == 4
    summary = json.loads((out / "interactions_summary.json").read_text())
    assert summary["all_passed"]


@pytest.mark.parametrize("suite", ["states", "interactions", "modulate",
                                   "shoot", "evolve", "energy", "spectrum"])
def test_suite_runs_with_defaults(tmp_path, suite):
    assert main(["--out", str(tmp_path), suite]) == 0
    summary = json.loads((tmp_path / f"{suite}_summary.json").read_text())
    assert summary["all_passed"]


def test_modulate_without_pair_file_round_trips_built_data(tmp_path):
    import numpy as np

    assert main(["--out", str(tmp_path), "modulate", "--nodes", "6",
                 "--r_max", "25"]) == 0
    res = json.loads((tmp_path / "modulate_results.json").read_text())
    z = np.asarray(res["z"])
    # z sits inside the T^-7/2 ball with alternating signs
    assert np.linalg.norm(z) <= res["t"] ** -3.5
    assert z[0, 0] > 0 > z[1, 0]
    scale = np.linalg.norm(z)
    assert np.max(np.abs(res["a"])) <= 1e-8 * scale
    assert np.max(np.abs(res["b"])) <= 1e-8 * scale
    assert np.max(np.abs(np.asarray(res["z_plus"]) - z)) <= 1e-8 * scale
    summary = json.loads((tmp_path / "modulate_summary.json").read_text())
    names = [c["name"] for c in summary["criteria"]]
    assert any(n.startswith("round trip") for n in names)
    assert summary["all_passed"]


def test_modulate_runs_on_pair_file(tmp_path, W):
    import numpy as np

    from wave4d.boosts import traveling_pair
    from wave4d.fields import FieldPair, Grid2DCyl, save_pair, sum_field

    t = 15.0
    base1 = traveling_pair(W, -0.5, t, 1)
    base2 = traveling_pair(W, 0.5, t, 1)
    pair = FieldPair(sum_field([base1.first, base2.first]),
                     sum_field([base1.second, base2.second]))
    grid = Grid2DCyl(-20.0, 20.0, 401, 15.0, 151)
    path = tmp_path / "pair.npz"
    save_pair(path, pair, grid)
    out = tmp_path / "mod"
    code = main(["--out", str(out), "modulate", "--pair_file", str(path),
                 "--profile", "ground", "--time", "15", "--nodes", "6",
                 "--r_max", "12"])
    assert code == 0
    state = json.loads((out / "modulate_results.json").read_text())
    assert abs(np.asarray(state["a"])).max() < 0.05


def test_every_default_has_a_flag_and_schema_entry_of_its_type(tmp_path):
    """Each key's config entry refuses a value of another JSON type than
    its default's (per item for a list; a boolean is never a number), and
    its flag parses the default's own text back to the default."""
    from wave4d.cli import _CHOICES, DEFAULTS, build_parser

    other = {float: ["0.5", True, None], int: [8.0, True, "8"],
             str: [1, None]}
    cfg_file = tmp_path / "cfg.json"
    for suite, defaults in DEFAULTS.items():
        for key, default in defaults.items():
            if isinstance(default, list):
                bad = [default[0]] + [[v] for v in other[type(default[0])]]
                text = ",".join(map(str, default))
            else:
                bad = other[type(default)] + (["other"] if key in _CHOICES
                                              else [])
                text = str(default)
            for value in bad:
                cfg_file.write_text(json.dumps({suite: {key: value}}))
                with pytest.raises(ConfigError, match=key):
                    load_config(str(cfg_file))
            # the flag parses the default's own text back to the default
            args = build_parser().parse_args([suite, f"--{key}={text}"])
            value = getattr(args, key)
            assert value == default and type(value) is type(default)
            if isinstance(default, list):
                assert {type(v) for v in value} == {type(default[0])}


def test_list_flags_take_a_negative_value_in_either_form():
    from wave4d.cli import DEFAULTS, build_parser

    flags = [(suite, key, [-v for v in default])
             for suite, defaults in DEFAULTS.items()
             for key, default in defaults.items()
             if isinstance(default, list)]
    assert {("interactions", "speeds"), ("shoot", "bracket")} <= {
        (suite, key) for suite, key, _ in flags}
    for suite, key, value in flags:
        text = ",".join(map(str, value))
        for argv in ([suite, f"--{key}", text], [suite, f"--{key}={text}"]):
            assert getattr(build_parser().parse_args(argv), key) == value
    # a negative list value followed by another flag
    args = build_parser().parse_args(["shoot", "--bracket", "-6e-3,6e-3",
                                      "--h", "0.1"])
    assert args.bracket == [-6e-3, 6e-3] and args.h == 0.1


def test_choice_flag_rejects_other_values():
    from wave4d.cli import build_parser

    with pytest.raises(SystemExit):
        build_parser().parse_args(["interactions", "--profile", "excited"])


@pytest.mark.parametrize("suite,key", [
    ("spectrum", "seed"), ("spectrum", "profile"), ("interactions", "seed"),
    ("modulate", "seed"), ("evolve", "seed"), ("shoot", "seed")])
def test_removed_keys_are_rejected(tmp_path, capsys, suite, key):
    cfg_file = tmp_path / "old.json"
    cfg_file.write_text(json.dumps({suite: {key: 7}}))
    assert main(["--config", str(cfg_file), "--out", str(tmp_path / "o"),
                 suite]) == 2
    assert key in capsys.readouterr().err
    with pytest.raises(SystemExit):
        main(["--out", str(tmp_path / "o"), suite, f"--{key}", "7"])


@pytest.mark.parametrize("suite,key", [("interactions", "nodes"),
                                       ("energy", "seed")])
def test_integer_keys_refuse_a_float(tmp_path, capsys, suite, key):
    """JSON Schema's "integer" takes 8.0; a suite would then die on it with
    a traceback (QuadratureSpec's ValueError, SeedSequence's TypeError)."""
    cfg_file = tmp_path / "float.json"
    cfg_file.write_text(json.dumps({suite: {key: 8.0}}))
    with pytest.raises(ConfigError, match=key):
        load_config(str(cfg_file))
    assert main(["--config", str(cfg_file), "--out", str(tmp_path / "o"),
                 suite]) == 2
    assert key in capsys.readouterr().err


@pytest.mark.parametrize("suite,key,value", [
    ("shoot", "h", "0"), ("shoot", "T", "-1"), ("evolve", "h", "nan"),
    ("modulate", "time", "-5"), ("energy", "samples", "0"),
    ("interactions", "nodes", "1"), ("interactions", "r_max", "-3"),
    ("energy", "seed", "-1"), ("evolve", "t1", "-1"),
    ("spectrum", "r_max", "-3")])
def test_out_of_domain_values_exit_2_before_any_work(tmp_path, capsys, suite,
                                                     key, value):
    """h = 0 divided by zero, time = -5 raised a complex T**-3.5 and
    samples = 0 reduced an empty array; nodes = 1 and r_max = -3 raised
    from QuadratureSpec, seed = -1 from SeedSequence, t1 = -1 a
    LinAlgError in np.polyfit and spectrum's r_max = -3 a math domain
    error.  Each now ends as one message line, from a
    flag and from a config file alike."""
    out = tmp_path / "o"
    assert main(["--out", str(out), suite, f"--{key}", value]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and f"{key} = " in err
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({suite: {key: int(value)
                                            if key in ("samples", "nodes",
                                                       "seed")
                                            else float(value)}}))
    assert main(["--config", str(cfg_file), "--out", str(out), suite]) == 2
    assert f"{key} = " in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("args", [
    ["--config", "{missing}", "states"], ["--config", "{malformed}", "states"],
    ["energy", "--gamma", "2"], ["energy", "--ell", "1.5"],
    ["interactions", "--speeds", "0.5,-0.5"],
    ["interactions", "--times", "10,20"], ["spectrum", "--k", "0"],
    ["states", "--grid_sizes", "200"],
    ["shoot", "--bracket", "0.001,0.002"], ["spectrum", "--n", "0"],
    ["interactions", "--times", "0,1,4"]],
    ids=["missing_config", "malformed_config", "gamma", "ell", "speeds",
         "times", "k", "grid_sizes", "bracket", "cells", "time_zero"])
def test_input_a_suite_refuses_exits_2_with_one_line(tmp_path, capsys, args):
    """A config file that cannot be opened or parsed, and input that a
    suite's own checks refuse (among them a spectrum of 0 cells and an
    interactions time of 0, which divided by zero), each printed a
    traceback and exited 1, the status of a failed criterion.  Each now ends as one message line and
    exit status 2, with no summary written."""
    (tmp_path / "malformed.json").write_text("{bad")
    out = tmp_path / "o"
    args = [a.format(missing=tmp_path / "missing.json",
                     malformed=tmp_path / "malformed.json") for a in args]
    assert main(["--out", str(out)] + args) == 2
    assert capsys.readouterr().err.count("\n") == 1
    assert not list(out.glob("*_summary.json"))


def test_spectrum_without_a_negative_mode_writes_its_summary(tmp_path):
    """At r_max 2 the grid operator has no negative eigenvalue.  The run
    died with an IndexError and wrote no summary; it now writes one and
    exits 1, the count row failing at 0 and the rows that need lam_1
    failing."""
    out = tmp_path / "o"
    assert main(["--out", str(out), "spectrum", "--r_max", "2"]) == 1
    summary = json.loads((out / "spectrum_summary.json").read_text())
    rows = {c["name"]: c for c in summary["criteria"]}
    count = rows["exactly one negative eigenvalue"]
    assert count["value"] == 0 and not count["passed"]
    assert not rows["grid vs shooting rate <= 1%"]["passed"]
    assert not rows["eigenfield decay rate within 10%"]["passed"]
    assert not summary["all_passed"]


def test_set_up_and_a_plain_run_leave_the_optimizer_stack_unloaded(tmp_path):
    """The package, the command line and the ground eigenpair every
    workload sets up import no scipy module at all: the package solves its
    tridiagonal systems itself.  A suite run without a config file then
    imports neither scipy's optimizer stack nor jsonschema; their users
    import them."""
    import subprocess
    import sys
    from pathlib import Path

    src = Path(__file__).resolve().parents[1] / "src"
    code = (
        "import sys; sys.path.insert(0, sys.argv[1])\n"
        "import wave4d, wave4d.cli\n"
        "from wave4d import cli, spectrum\n"
        "spectrum.ground_eigenpair()\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
        "assert cli.main(['--out', sys.argv[2], 'states']) == 0\n"
        "assert cli.main(['--out', sys.argv[2], 'shoot', '--h', '0']) == 2\n"
        "print(sorted({'scipy.integrate', 'scipy.interpolate',\n"
        "              'scipy.optimize', 'jsonschema'} & set(sys.modules)))\n")
    out = subprocess.run([sys.executable, "-c", code, str(src),
                          str(tmp_path)], capture_output=True, text=True,
                         check=True, timeout=120)
    lines = out.stdout.splitlines()
    assert lines[0] == "[]"
    assert lines[-1] == "[]"
