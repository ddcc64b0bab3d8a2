import csv
import json
import subprocess
import sys

import numpy as np
import pytest

from parabolic_control import cli
from parabolic_control import control as ctl
from parabolic_control import rational as rat
from parabolic_control import sensitivity as sens
from parabolic_control.config import RunConfig, load_config


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
                 "eps_fractions = 0.5, 0.9\nseed = 7\n")
    cfg = load_config("example1d", path=p)
    assert cfg.variant == "discontinuous"
    assert cfg.n_el == 30
    assert cfg.eps_fractions == (0.5, 0.9)
    assert cfg.seed == 7


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
                 "[oracle-check]\nn_el_oracle = 33\n")
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


def test_fit_tol_override_stays_in_its_run(tmp_path, monkeypatch):
    """The fit tolerance travels in the problem spec: an INI override of
    fit_tol reaches every fit of its own run, the semigroup's included,
    rebinds nothing in the control module, and a later run without it fits
    at the default."""
    tols = []

    def recorded(gs, d, tol, _fit=rat.fit_cached):
        tols.append(tol)
        return _fit(gs, d, tol)
    monkeypatch.setattr(rat, "fit_cached", recorded)
    small = "[example1d]\nn_el = 24\neps_fractions = 0.5\nphi_curve_points = 3\n"
    loose, plain = tmp_path / "loose.ini", tmp_path / "plain.ini"
    loose.write_text(small + "fit_tol = 1e-9\n")
    plain.write_text(small)
    for path, want in ((loose, 1e-9), (plain, 1e-12)):
        before = dict(vars(ctl))
        tols.clear()
        assert cli.main(["example1d", "--config", str(path),
                         "--out", str(tmp_path / path.stem)]) == 0
        assert tols and set(tols) == {want}
        assert [k for k, v in vars(ctl).items() if before.get(k) is not v] == []


def test_phi_curve_continuity_and_decay(hd62, op62, phi0_62):
    # first default sample within 1e-4 of Phi(0); last below 1e-3 Phi(0)
    cfg = load_config("phi-curve")
    first = ctl.phi(hd62, op62, cfg.mu_min)
    last = ctl.phi(hd62, op62, cfg.mu_max)
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
    assert "rows_failed = 0" in (out / "run_meta.txt").read_text()


def test_sensitivity_cli_rejects_unknown_channel_and_counts_failed_rows(
        tmp_path, monkeypatch):
    # a misspelled channel is a config error (exit 2, JSON line), not a CSV
    # of nan rows; a row that fails inside the sweep is counted in
    # run_meta.txt, since its CSV row cannot say so
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
    assert cli.main(["sensitivity", "--config", str(one), "--out", str(tmp_path / "one")]) == 0
    assert "rows_failed = 1" in (tmp_path / "one" / "run_meta.txt").read_text()


def test_oracle_check_cli(tmp_path, small_1d_cfg):
    out = tmp_path / "oc"
    res = run_cli(["oracle-check", "--config", str(small_1d_cfg),
                   "--out", str(out)])
    assert res.returncode == 0, res.stderr
    row = read_csv(out / "oracle_check.csv")[0]
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
    from parabolic_control.cli import cmd_phi_curve
    cfg = load_config("phi-curve")
    out = tmp_path / "full_curve"
    out.mkdir()
    cmd_phi_curve(cfg, out)
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
    from parabolic_control.cli import cmd_convergence
    cfg = load_config("convergence")
    out = tmp_path / "conv"
    out.mkdir()
    cmd_convergence(cfg, out)

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
