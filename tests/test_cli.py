import csv
import json
import subprocess
import sys
from dataclasses import fields

import numpy as np
import pytest

from parabolic_control import cli
from parabolic_control import control as ctl
from parabolic_control import sensitivity as sens
from parabolic_control.config import VERBS, RunConfig, load_config


def run_cli(args):
    return subprocess.run([sys.executable, "-m", "parabolic_control.cli", *args],
                          capture_output=True, text=True)


def read_csv(path):
    with open(path) as fh:
        return list(csv.DictReader(fh))


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

def test_default_configs():
    cfg = load_config("example1d")
    assert cfg.n_el == 62 and cfg.T == 0.01 and cfg.alpha == 1e-4
    assert cfg.eps_fractions == (0.2, 0.5, 0.9)
    cfg2 = load_config("example2d")
    assert cfg2.h == pytest.approx(1 / 30) and cfg2.T == 0.05
    assert cfg2.eps_fractions == (0.1, 0.5, 0.9)
    cfgp = load_config("phi-curve")
    assert cfgp.phi_curve_points == 350
    assert cfgp.mu_min == 1e-7 and cfgp.mu_max == 1e12


def test_config_file_overrides(tmp_path):
    p = tmp_path / "run.ini"
    p.write_text("[example1d]\nvariant = discontinuous\nn_el = 30\n"
                 "eps_fractions = 0.5, 0.9\n[sensitivity]\nseed = 7\n")
    cfg = load_config("example1d", path=p)
    assert cfg.variant == "discontinuous"
    assert cfg.n_el == 30
    assert cfg.eps_fractions == (0.5, 0.9)
    assert load_config("sensitivity", path=p).seed == 7


def test_config_rejects_unknown_keys(tmp_path):
    p = tmp_path / "run.ini"
    p.write_text("[example1d]\nbogus_key = 1\n")
    with pytest.raises(ValueError):
        load_config("example1d", path=p)


@pytest.mark.parametrize("line, key", [("foo = bar", "foo"),
                                       ("experiment = example2d", "experiment"),
                                       ("variant = Discontinuous", "variant")])
def test_cli_rejects_unknown_unsettable_or_invalid_keys(tmp_path, line, key):
    # every key is checked before any value is parsed; the verb sets the
    # experiment; a misspelled variant must not run the discontinuous case
    p = tmp_path / "bad.ini"
    p.write_text(f"[example1d]\nn_el = 24\n{line}\n")
    out = tmp_path / "x"
    res = run_cli(["example1d", "--config", str(p), "--out", str(out)])
    assert res.returncode == 2
    err = json.loads(res.stderr.strip().splitlines()[-1])
    assert err["error"] == "ValueError" and key in err["message"]
    assert not list(out.glob("*.csv"))


def test_cli_rejects_a_section_that_names_no_experiment(tmp_path):
    # a misspelled section would otherwise run the verb at its defaults;
    # sections for other experiments stay valid
    p = tmp_path / "bad.ini"
    p.write_text("[example1D]\nn_el = 24\n[example2d]\nh = 0.1\n[phi_curve]\nseed = 1\n")
    out = tmp_path / "x"
    res = run_cli(["example1d", "--config", str(p), "--out", str(out)])
    assert res.returncode == 2
    err = json.loads(res.stderr.strip().splitlines()[-1])
    assert err["error"] == "ValueError"
    assert err["message"].startswith("config sections ['example1D', 'phi_curve'] ")
    assert not list(out.glob("*.csv"))


@pytest.mark.parametrize("jump", ["nan", "inf"])
def test_cli_names_a_non_finite_diffusion_jump(tmp_path, jump):
    # the operator's set-up used to die inside SuperLU ("Factor is exactly
    # singular"), which names no input; the config refuses it first, as
    # every non-finite float key
    p = tmp_path / "bad.ini"
    p.write_text(f"[example1d]\nvariant = discontinuous\ndiffusion_jump = {jump}\n")
    out = tmp_path / "x"
    res = run_cli(["example1d", "--config", str(p), "--out", str(out)])
    assert res.returncode == 2
    err = json.loads(res.stderr.strip().splitlines()[-1])
    assert err == {"error": "ValueError",
                   "message": f"diffusion_jump must be finite, got {jump}"}
    assert not list(out.glob("*.csv"))


@pytest.mark.parametrize("verb, line, key", [
    ("phi-curve", "mu_max = inf", "mu_max"),
    ("example1d", "eps_fractions = 0.5, nan", "eps_fractions"),
    ("sensitivity", "nu_list = 0.01, -inf", "nu_list")])
def test_cli_names_a_non_finite_float_key(tmp_path, verb, line, key):
    # phi-curve with mu_max = inf wrote rows of nan and inf and exited 0
    p = tmp_path / "bad.ini"
    p.write_text(f"[{verb}]\nn_el = 24\n{line}\n")
    out = tmp_path / "x"
    res = run_cli([verb, "--config", str(p), "--out", str(out)])
    assert res.returncode == 2
    err = json.loads(res.stderr.strip().splitlines()[-1])
    assert err["error"] == "ValueError"
    assert err["message"].startswith(f"{key} must be finite, got ")
    assert not out.exists()


def test_cli_names_a_negative_seed(tmp_path):
    # sensitivity --seed -1 ran every row into numpy's seed check and wrote
    # all-NaN CSVs with rows_failed = 18, exiting 0
    out = tmp_path / "x"
    res = run_cli(["sensitivity", "--seed", "-1", "--out", str(out)])
    assert res.returncode == 2
    err = json.loads(res.stderr.strip().splitlines()[-1])
    assert err == {"error": "ValueError", "message": "seed must be >= 0, got -1"}
    assert not out.exists()


@pytest.mark.parametrize("key", ["w_indicator", "ystar_indicator"])
@pytest.mark.parametrize("value, problem", [
    ("1", "must have two entries a, b"),
    ("0.5, 1, 1.5", "must have two entries a, b"),
    # a reversed interval projected to zero data and exited 0
    ("2, 1", "must satisfy 0 <= a < b <= pi"),
    # one outside [0, pi] too, or failed on eps = 0 where both were
    ("5, 6", "must satisfy 0 <= a < b <= pi"),
    ("-0.5, 1", "must satisfy 0 <= a < b <= pi")],
    ids=["one", "three", "reversed", "outside", "below"])
def test_cli_names_an_invalid_indicator_interval(tmp_path, key, value, problem):
    # one entry exited with a bare TypeError about Indicator1D
    p = tmp_path / "bad.ini"
    p.write_text(f"[example1d]\nn_el = 24\n{key} = {value}\n")
    out = tmp_path / "x"
    res = run_cli(["example1d", "--config", str(p), "--out", str(out)])
    assert res.returncode == 2
    err = json.loads(res.stderr.strip().splitlines()[-1])
    assert err["error"] == "ValueError"
    assert err["message"].startswith(f"{key} {problem}, got ")
    assert not out.exists()


def test_both_indicators_outside_the_domain_name_the_first_key(tmp_path):
    # 5, 6 in both keys exited with "tolerance eps must be positive"
    p = tmp_path / "bad.ini"
    p.write_text("[sensitivity]\nn_el = 24\nw_indicator = 5, 6\n"
                 "ystar_indicator = 5, 6\n")
    res = run_cli(["sensitivity", "--config", str(p), "--out", str(tmp_path / "x")])
    assert res.returncode == 2
    err = json.loads(res.stderr.strip().splitlines()[-1])
    assert err == {"error": "ValueError", "message":
                   "w_indicator must satisfy 0 <= a < b <= pi, got (5.0, 6.0)"}


def test_config_file_sets_the_horizon(tmp_path):
    # INI keys keep their case, so T is settable from a file (a lowercased
    # t was an unknown key, exit 2)
    p = tmp_path / "run.ini"
    p.write_text("[example1d]\nn_el = 24\nT = 0.02\neps_fractions = 0.5\n"
                 "phi_curve_points = 9\n")
    out = tmp_path / "x"
    assert cli.main(["example1d", "--config", str(p), "--out", str(out)]) == 0
    assert "T = 0.02" in (out / "run_meta.txt").read_text().splitlines()


def test_config_file_may_hold_sections_for_several_experiments(tmp_path):
    # each verb reads its own section only
    p = tmp_path / "run.ini"
    p.write_text("[example1d]\nn_el = 24\n[example2d]\nh = 0.1\n[sensitivity]\nseed = 1\n")
    assert load_config("example1d", path=p).n_el == 24
    assert load_config("example2d", path=p).h == 0.1
    assert load_config("sensitivity", path=p).seed == 1
    assert load_config("oracle-check", path=p).n_el == 65


# the number of keys each verb reads: 68 of the 6 x 19 verb-key pairs
READS = {"example1d": 15, "example2d": 7, "phi-curve": 14, "convergence": 7,
         "sensitivity": 14, "oracle-check": 11}

SMALL_RUNS = {
    "example1d": "n_el = 24\neps_fractions = 0.5\nphi_curve_points = 5\n",
    "example2d": "h = 0.125\neps_fractions = 0.5\n",
    "phi-curve": "n_el = 24\nphi_curve_points = 5\n",
    "convergence": "",
    "sensitivity": "n_el = 24\nnu_list = 0.01\nchannels = ystar\n",
    "oracle-check": "n_el = 33\n",
}


@pytest.mark.parametrize("verb", list(VERBS))
def test_each_verb_reads_exactly_the_keys_it_declares(tmp_path, monkeypatch, verb):
    # a key is settable and echoed in run_meta.txt exactly when the verb's
    # run reads it; reads that validate (__post_init__), echo (echo_config)
    # or load another verb's defaults (convergence's 2D meshes) do not count
    keys = VERBS[verb].keys
    assert len(keys) == READS[verb]
    section = SMALL_RUNS[verb] + ("variant = discontinuous\n" if "variant" in keys else "")
    path = tmp_path / "small.ini"
    path.write_text(f"[{verb}]\n{section}")
    names = {f.name for f in fields(RunConfig)} - {"experiment"}
    skip = {"__post_init__", "echo_config", "load_config"}
    get = object.__getattribute__
    reads = set()

    def recording(self, name):
        if name in names and get(self, "experiment") == verb:
            frame = sys._getframe(1)
            while frame is not None and frame.f_code.co_name not in skip:
                frame = frame.f_back
            if frame is None:
                reads.add(name)
        return get(self, name)

    monkeypatch.setattr(RunConfig, "__getattribute__", recording)
    assert cli.main([verb, "--config", str(path), "--out", str(tmp_path / "out")]) == 0
    monkeypatch.undo()
    assert reads == set(keys)
    meta = (tmp_path / "out" / "run_meta.txt").read_text().splitlines()
    assert [k for k, _, _ in (ln.partition(" = ") for ln in meta) if k in names] \
        == list(keys)


@pytest.mark.parametrize("section, flags, key", [("[example2d]\nn_el = 30\n", [], "n_el"),
                                                 ("", ["--seed", "7"], "seed")])
def test_example2d_rejects_a_key_it_does_not_read(tmp_path, section, flags, key):
    p = tmp_path / "c.ini"
    p.write_text(section)
    out = tmp_path / "x"
    res = run_cli(["example2d", "--config", str(p), "--out", str(out), *flags])
    assert res.returncode == 2
    err = json.loads(res.stderr.strip().splitlines()[-1])
    assert key in err["message"]
    assert not out.exists()


@pytest.mark.parametrize("verb", [v for v in VERBS if v != "sensitivity"])
def test_seed_flag_exists_only_where_seed_is_read(tmp_path, verb, capsys):
    assert cli.main([verb, "--seed", "7", "--out", str(tmp_path / "x")]) == 2
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == "ValueError" and "--seed" in err["message"]
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("line, key, raw, expected", [
    ("n_el = 1.5", "n_el", "1.5", "expected int"),
    ("eps_fractions = 0.2, x", "eps_fractions", "0.2, x", "expected a list of float")])
def test_cli_names_the_key_of_a_value_of_the_wrong_type(tmp_path, line, key, raw, expected):
    p = tmp_path / "bad.ini"
    p.write_text(f"[example1d]\n{line}\n")
    out = tmp_path / "x"
    res = run_cli(["example1d", "--config", str(p), "--out", str(out)])
    assert res.returncode == 2
    err = json.loads(res.stderr.strip().splitlines()[-1])
    assert err["error"] == "ValueError"
    assert all(part in err["message"] for part in (key, repr(raw), expected))
    assert not list(out.glob("*.csv"))


def test_config_validates_fractions():
    with pytest.raises(ValueError):
        RunConfig(experiment="example1d", eps_fractions=(1.5,))


# ---------------------------------------------------------------------------
# CLI runs (reduced sizes)
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def small_1d_cfg(tmp_path_factory):
    p = tmp_path_factory.mktemp("cfg") / "small.ini"
    p.write_text("[example1d]\nn_el = 24\neps_fractions = 0.5\n"
                 "phi_curve_points = 9\n"
                 "[phi-curve]\nn_el = 24\nphi_curve_points = 12\n"
                 "[sensitivity]\nn_el = 24\nnu_list = 0.01\nchannels = ystar\n"
                 "[oracle-check]\nn_el = 33\n")
    return p


def test_example1d_artifacts_and_determinism(tmp_path, small_1d_cfg):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        res = run_cli(["example1d", "--config", str(small_1d_cfg),
                       "--out", str(out)])
        assert res.returncode == 0, res.stderr
    summary = read_csv(out1 / "summary.csv")
    assert len(summary) == 1
    row = summary[0]
    assert {"eps_fraction", "eps", "mu_eps", "cost", "kkt_residual",
            "final_miss", "feasibility_gap", "u_vs_umin_rel"} == set(row)
    assert float(row["kkt_residual"]) <= 1e-6
    assert abs(float(row["feasibility_gap"])) <= 1e-6 * 2.0
    sol = read_csv(out1 / "solution_eps0.csv")
    assert set(sol[0]) == {"x", "u_opt", "y_half", "w", "y_final", "ystar"}
    curve = read_csv(out1 / "phi_curve.csv")
    assert len(curve) == 9
    assert all(r["monotone_ok"] == "1" for r in curve)
    for name in ("summary.csv", "solution_eps0.csv", "phi_curve.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    meta = (out1 / "run_meta.txt").read_text()
    assert "n_el = 24" in meta and "time_phi0_s" in meta
    assert 0 < meta_phi_evals(out1)[0] <= 11


def meta_phi_evals(out):
    """The phi_evals_eps{i} lines of run_meta.txt, by i."""
    found = {}
    for line in (out / "run_meta.txt").read_text().splitlines():
        key, _, value = line.partition(" = ")
        if key.startswith("phi_evals_eps"):
            found[int(key[len("phi_evals_eps"):])] = int(value)
    return [found[i] for i in range(len(found))]


def test_phi_curve_run(tmp_path, small_1d_cfg):
    out = tmp_path / "curve"
    res = run_cli(["phi-curve", "--config", str(small_1d_cfg), "--out", str(out)])
    assert res.returncode == 0, res.stderr
    rows = read_csv(out / "phi_curve.csv")
    assert len(rows) == 12
    phis = [float(r["phi"]) for r in rows]
    assert all(b <= a for a, b in zip(phis, phis[1:]))
    assert "non_monotone_flagged = 0" in (out / "run_meta.txt").read_text()


def test_cli_runs_rebind_nothing_in_control(tmp_path):
    """Two in-process runs each leave every binding of the control module
    as they found it."""
    path = tmp_path / "small.ini"
    path.write_text("[example1d]\nn_el = 24\neps_fractions = 0.5\nphi_curve_points = 3\n")
    for out in ("a", "b"):
        before = dict(vars(ctl))
        assert cli.main(["example1d", "--config", str(path),
                         "--out", str(tmp_path / out)]) == 0
        assert [k for k, v in vars(ctl).items() if before.get(k) is not v] == []


def test_phi_curve_continuity_and_decay(hd62, op62, phi0_62):
    # the curve the verb writes: its first default sample within 1e-4 of
    # Phi(0), its last below 1e-3 Phi(0), both within 1e-8 Phi(0) of phi
    cfg = load_config("phi-curve")
    rows, phi0 = cli._phi_curve_rows(hd62, op62, cfg)
    (mu_first, first, _), (mu_last, last, _) = rows[0], rows[-1]
    assert phi0 == phi0_62
    assert (mu_first, mu_last) == pytest.approx((cfg.mu_min, cfg.mu_max), rel=1e-12)
    assert abs(first - ctl.phi(hd62, op62, cfg.mu_min)) <= 1e-8 * phi0_62
    assert abs(last - ctl.phi(hd62, op62, cfg.mu_max)) <= 1e-8 * phi0_62
    assert abs(first - phi0_62) <= 1e-4 * phi0_62
    assert last <= 1e-3 * phi0_62


def test_example2d_coarse_run(tmp_path):
    p = tmp_path / "c.ini"
    p.write_text("[example2d]\nh = 0.125\neps_fractions = 0.5\n")
    out = tmp_path / "out2d"
    res = run_cli(["example2d", "--config", str(p), "--out", str(out)])
    assert res.returncode == 0, res.stderr
    assert 0 < meta_phi_evals(out)[0] <= 11
    rows = read_csv(out / "summary.csv")
    assert float(rows[0]["kkt_residual"]) <= 1e-6
    for j in range(3):
        snap = read_csv(out / f"snapshot_eps0_t{j}.csv")
        assert set(snap[0]) == {"x", "y", "value"}
    assert (out / "mesh.txt").exists()


def test_sensitivity_cli(tmp_path, small_1d_cfg):
    out = tmp_path / "sens"
    res = run_cli(["sensitivity", "--config", str(small_1d_cfg),
                   "--out", str(out)])
    assert res.returncode == 0, res.stderr
    rows = read_csv(out / "sensitivity_ystar.csv")
    assert [r["channel"] for r in rows] == ["ystar"]
    assert set(rows[0]) == {"channel", "nu", "drift", "ratio", "mu_eps",
                            "mu_eps_delta"}
    meta = (out / "run_meta.txt").read_text()
    assert "rows_failed = 0" in meta
    # S_2T, the problem fit and the base control's resolvent, on the operator
    # and its live children: no row leaves a factor there
    assert 0 < int(meta.split("factors_live = ")[1].split()[0]) <= 30


def test_sensitivity_cli_rejects_unknown_channel_and_counts_failed_rows(
        tmp_path, monkeypatch):
    # a misspelled channel is a config error (exit 2, JSON line), not a CSV
    # of nan rows; a row that fails inside the sweep is counted in
    # run_meta.txt, since its CSV row cannot say so, and the verb exits 1
    bad = tmp_path / "bad.ini"
    bad.write_text("[sensitivity]\nn_el = 24\nnu_list = 0.01\nchannels = alpah, w\n")
    res = run_cli(["sensitivity", "--config", str(bad), "--out", str(tmp_path / "bad")])
    assert res.returncode == 2
    err = json.loads(res.stderr.strip().splitlines()[-1])
    assert err["error"] == "ValueError" and "alpah" in err["message"]
    assert not (tmp_path / "bad" / "sensitivity_alpah.csv").exists()
    perturb = sens.perturb

    def failing(spec, op, p):
        if p.nu == 0.02:
            raise RuntimeError("row failed")
        return perturb(spec, op, p)
    monkeypatch.setattr(sens, "perturb", failing)
    one = tmp_path / "one.ini"
    one.write_text("[sensitivity]\nn_el = 24\nnu_list = 0.01, 0.02\nchannels = ystar\n")
    assert cli.main(["sensitivity", "--config", str(one), "--out", str(tmp_path / "one")]) == 1
    assert "rows_failed = 1" in (tmp_path / "one" / "run_meta.txt").read_text()


# The sensitivity verb on the config argv[1], writing to argv[2], with the
# rows at nu = 0.02 patched to fail; exits with the verb's code.
_FAILING_ROW_CHILD = """
import sys
from parabolic_control import cli, sensitivity as sens
perturb = sens.perturb
def failing(spec, op, p):
    if p.nu == 0.02:
        raise RuntimeError("row failed")
    return perturb(spec, op, p)
sens.perturb = failing
sys.exit(cli.main(["sensitivity", "--config", sys.argv[1], "--out", sys.argv[2]]))
"""


def test_sensitivity_cli_exits_1_after_its_outputs_when_a_row_fails(tmp_path):
    # a failed row used to exit 0, so a run that stops at a nonzero verb
    # (scripts/reproduce_experiments.py) went on past it
    cfg = tmp_path / "two.ini"
    cfg.write_text("[sensitivity]\nn_el = 24\nnu_list = 0.01, 0.02\nchannels = ystar, w\n")
    out = tmp_path / "out"
    res = subprocess.run([sys.executable, "-c", _FAILING_ROW_CHILD, str(cfg), str(out)],
                         capture_output=True, text=True)
    assert res.returncode == 1, res.stderr
    assert json.loads(res.stderr.strip().splitlines()[-1]) == {
        "error": "RowsFailed", "message": "2 of 4 rows failed"}
    for channel in ("ystar", "w"):
        rows = read_csv(out / f"sensitivity_{channel}.csv")
        assert [r["drift"] == "nan" for r in rows] == [False, True]
    meta = (out / "run_meta.txt").read_text()
    assert "rows_failed = 2" in meta and "time_sweeps_s" in meta


def test_oracle_check_cli(tmp_path, small_1d_cfg):
    out = tmp_path / "oc"
    res = run_cli(["oracle-check", "--config", str(small_1d_cfg),
                   "--out", str(out)])
    assert res.returncode == 0, res.stderr
    row = read_csv(out / "oracle_check.csv")[0]
    assert float(row["u_rel_err"]) <= 1e-7
    assert float(row["mu_rel_err"]) <= 1e-8


def test_oracle_check_solves_the_configured_variant(tmp_path):
    # the verb builds the operator of the config's variant, as example1d does
    rows = {}
    for variant in ("isotropic", "discontinuous"):
        p = tmp_path / f"{variant}.ini"
        p.write_text(f"[oracle-check]\nn_el = 33\nvariant = {variant}\n")
        out = tmp_path / variant
        assert cli.main(["oracle-check", "--config", str(p), "--out", str(out)]) == 0
        rows[variant] = read_csv(out / "oracle_check.csv")[0]
    assert rows["isotropic"]["mu_oracle"] != rows["discontinuous"]["mu_oracle"]
    for row in rows.values():
        assert float(row["u_rel_err"]) <= 1e-7
        assert float(row["mu_rel_err"]) <= 1e-8


def test_cli_error_is_machine_readable(tmp_path):
    p = tmp_path / "bad.ini"
    p.write_text("[example1d]\nn_el = 1\n")
    res = run_cli(["example1d", "--config", str(p), "--out", str(tmp_path / "x")])
    assert res.returncode == 2
    err = json.loads(res.stderr.strip().splitlines()[-1])
    assert "error" in err and "message" in err


@pytest.mark.parametrize("lines, key", [("phi_curve_points = 0", "phi_curve_points"),
                                        ("mu_min = 1e6\nmu_max = 1e-3", "mu_min"),
                                        ("mu_min = 0", "mu_min")])
def test_phi_curve_rejects_empty_or_invalid_sampling(tmp_path, lines, key):
    p = tmp_path / "bad.ini"
    p.write_text(f"[phi-curve]\nn_el = 24\n{lines}\n")
    out = tmp_path / "x"
    res = run_cli(["phi-curve", "--config", str(p), "--out", str(out)])
    assert res.returncode == 2
    err = json.loads(res.stderr.strip().splitlines()[-1])
    assert err["error"] == "ValueError" and key in err["message"]
    assert not (out / "phi_curve.csv").exists()


@pytest.mark.parametrize("verb, lines, key", [
    ("example1d", "eps_fractions =", "eps_fractions"),
    ("sensitivity", "nu_list =", "nu_list"),
    ("sensitivity", "channels =", "channels"),
    ("sensitivity", "nu_list = 1.5", "nu_list"),
    ("sensitivity", "nu_list = 1e-2, -1e-3", "nu_list")])
def test_cli_rejects_empty_or_out_of_range_lists(tmp_path, verb, lines, key):
    # an empty list would run nothing and exit 0; a magnitude outside [0, 1)
    # would fail every row instead of the input
    p = tmp_path / "bad.ini"
    p.write_text(f"[{verb}]\nn_el = 24\n{lines}\n")
    out = tmp_path / "x"
    res = run_cli([verb, "--config", str(p), "--out", str(out)])
    assert res.returncode == 2
    err = json.loads(res.stderr.strip().splitlines()[-1])
    assert err["error"] == "ValueError" and key in err["message"]
    assert not list(out.glob("*.csv"))


def test_phi_curve_full_default_has_350_rows(tmp_path):
    # the reference curve: 350 log-spaced samples, all monotone
    out = tmp_path / "full_curve"
    assert cli.main(["phi-curve", "--out", str(out)]) == 0
    rows = read_csv(out / "phi_curve.csv")
    assert len(rows) == 350
    assert all(r["monotone_ok"] == "1" for r in rows)
    phis = [float(r["phi"]) for r in rows]
    meta = (out / "run_meta.txt").read_text()
    phi0 = float(meta.split("phi0 = ")[1].splitlines()[0])
    assert abs(phis[0] - phi0) <= 1e-4 * phi0
    assert phis[-1] <= 1e-3 * phi0


def test_variant_differs_only_through_operator(tmp_path):
    p = tmp_path / "v.ini"
    p.write_text("[example1d]\nn_el = 24\neps_fractions = 0.5\n"
                 "phi_curve_points = 5\n")
    out_iso, out_disc = tmp_path / "iso", tmp_path / "disc"
    assert run_cli(["example1d", "--config", str(p), "--out",
                    str(out_iso)]).returncode == 0
    assert run_cli(["example1d", "--config", str(p), "--out", str(out_disc),
                    "--variant", "discontinuous"]).returncode == 0
    cfg_lines = {}
    for name, out in (("iso", out_iso), ("disc", out_disc)):
        cfg_lines[name] = {ln for ln in (out / "run_meta.txt").read_text().splitlines()
                           if " = " in ln and not ln.startswith("time_")
                           and not ln.startswith("phi0")
                           and not ln.startswith("phi_evals_")
                           and not ln.startswith("out_dir")}
    diff = cfg_lines["iso"] ^ cfg_lines["disc"]
    assert diff == {"variant = 'isotropic'", "variant = 'discontinuous'"}
    assert (out_iso / "summary.csv").read_bytes() \
        != (out_disc / "summary.csv").read_bytes()


def test_convergence_run(tmp_path):
    out = tmp_path / "conv"
    assert cli.main(["convergence", "--out", str(out)]) == 0

    fit_rows = read_csv(out / "fit_degree.csv")
    exp_errs = [float(r["error"]) for r in fit_rows
                if r["symbol"] == "exp" and 4 <= int(r["degree_requested"]) <= 12]
    assert all(b <= 0.5 * a for a, b in zip(exp_errs, exp_errs[1:]))
    quot_errs = [float(r["error"]) for r in fit_rows
                 if r["symbol"] == "quotient" and 4 <= int(r["degree_requested"]) <= 12]
    assert all(b <= 0.5 * a for a, b in zip(quot_errs, quot_errs[1:]))

    cont = read_csv(out / "contour_rate.csv")
    ns = np.array([int(r["n"]) for r in cont])
    errs = np.array([float(r["sup_error"]) for r in cont])
    slope = np.polyfit(ns, np.log(errs), 1)[0]
    assert slope <= -np.log(3.2) * 0.8

    mesh_rows = read_csv(out / "phi0_mesh.csv")
    smooth = [r for r in mesh_rows if r["case"] == "1d-smooth"]
    diffs = [float(r["diff_prev"]) for r in smooth[1:]]
    assert all(b < a for a, b in zip(diffs, diffs[1:]))
    hs = [float(r["h"]) for r in smooth]
    orders = [np.log(diffs[i] / diffs[i + 1]) / np.log(hs[i + 1] / hs[i + 2])
              for i in range(len(diffs) - 1)]
    assert all(o >= 1.5 for o in orders)
    two_d = [r for r in mesh_rows if r["case"] == "2d-smooth"]
    d2 = [float(r["diff_prev"]) for r in two_d[1:]]
    assert d2[1] < d2[0]
    assert any(r["case"] == "1d-indicator" for r in mesh_rows)


def test_convergence_2d_rows_read_the_verbs_alpha(tmp_path):
    # [convergence] alpha reaches the 2d-smooth rows as well as the 1D ones;
    # their mesh stays example2d's (same h and n), with example2d's T
    cfg = tmp_path / "run.ini"
    cfg.write_text("[convergence]\nalpha = 1e-3\n")
    rows = {}
    for name, extra in (("default", []), ("alpha", ["--config", str(cfg)])):
        assert cli.main(["convergence", "--out", str(tmp_path / name), *extra]) == 0
        rows[name] = [r for r in read_csv(tmp_path / name / "phi0_mesh.csv")
                      if r["case"] == "2d-smooth"]
    assert len(rows["default"]) == len(rows["alpha"]) == 3
    for a, b in zip(rows["default"], rows["alpha"]):
        assert (a["h"], a["n"]) == (b["h"], b["n"])
        assert float(a["phi0"]) != float(b["phi0"])
