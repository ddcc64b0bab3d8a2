"""Run configuration: flat key-value text files with one section per experiment.

Files are standard INI as read by configparser.  Every experiment has
built-in defaults (the published problem parameters); a config file
overrides individual keys in the section named after the experiment:

    [example1d]
    variant = discontinuous
    n_el = 62
    eps_fractions = 0.2, 0.5, 0.9
    seed = 7

Keys and types (defaults in parentheses):
    variant           str    1D case: isotropic | discontinuous (isotropic)
    n_el              int    1D element count (62, i.e. h ~ 1/20 on [0, pi])
    h                 float  2D grid spacing (1/30)
    T                 float  horizon (0.01 in 1D, 0.05 in 2D)
    alpha             float  control weight (1e-4)
    diffusion_jump    float  coefficient jump a of 1 + a*chi_[gamma, pi] (-0.8)
    interface         float  jump location gamma (2.2)
    beta_lo, beta_hi  float  active window of beta as fractions of T (1/3, 2/3)
    w_indicator       2 floats   1D target-trajectory indicator interval
    ystar_indicator   2 floats   1D final-target indicator interval
    eps_fractions     floats  constraint levels as fractions of Phi(0), in (0, 1]
    phi_curve_points  int    number of log-spaced mu samples
    mu_min, mu_max    float  Phi-curve sampling range (1e-7, 1e12)
    nu_list           floats sensitivity magnitudes in [0, 1) (1e-2, 1e-3, 1e-4)
    fit_tol           float  rational-fit tolerance of the solve path (1e-12)
    channels          strs   sensitivity channels (all six)
    n_el_oracle       int    oracle-check 1D element count (65, i.e. n = 64)
    seed              int    random seed (0)

Each key is parsed as the type of its default; a list takes the type of
the default's first element.  The experiment is the verb's, not a key.  The
lists eps_fractions, nu_list and channels must not be empty.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, field, fields

import numpy as np

from .sensitivity import CHANNELS

PI = np.pi

EXPERIMENTS = ("example1d", "example2d", "phi-curve", "convergence",
               "sensitivity", "oracle-check")


@dataclass
class RunConfig:
    experiment: str
    variant: str = "isotropic"
    n_el: int = 62
    h: float = 1.0 / 30.0
    T: float = 0.01
    alpha: float = 1e-4
    diffusion_jump: float = -0.8
    interface: float = 2.2
    beta_lo: float = 1.0 / 3.0
    beta_hi: float = 2.0 / 3.0
    w_indicator: tuple = (PI / 5.0, 2.0 * PI / 5.0)
    ystar_indicator: tuple = (3.0 * PI / 5.0, 4.0 * PI / 5.0)
    eps_fractions: tuple = (0.2, 0.5, 0.9)
    phi_curve_points: int = 350
    mu_min: float = 1e-7
    mu_max: float = 1e12
    nu_list: tuple = (1e-2, 1e-3, 1e-4)
    fit_tol: float = 1e-12
    channels: tuple = CHANNELS
    n_el_oracle: int = 65
    seed: int = 0
    out_dir: str = "out"

    def __post_init__(self):
        if self.experiment not in EXPERIMENTS:
            raise ValueError(f"unknown experiment {self.experiment!r}")
        if self.variant not in ("isotropic", "discontinuous"):
            raise ValueError(f"variant must be isotropic or discontinuous, "
                             f"got {self.variant!r}")
        for key in ("eps_fractions", "nu_list", "channels"):
            if not getattr(self, key):
                raise ValueError(f"{key} must not be empty")
        if not all(0 < frac <= 1 for frac in self.eps_fractions):
            raise ValueError(f"eps_fractions must lie in (0, 1], got {self.eps_fractions}")
        if not all(0 <= nu < 1 for nu in self.nu_list):
            raise ValueError(f"nu_list magnitudes must lie in [0, 1), got {self.nu_list}")
        if not 0 <= self.beta_lo < self.beta_hi <= 1:
            raise ValueError("beta window fractions must satisfy 0 <= lo < hi <= 1")
        if self.phi_curve_points < 1:
            raise ValueError(f"phi_curve_points must be >= 1, got {self.phi_curve_points}")
        if not 0 < self.mu_min < self.mu_max:
            raise ValueError(f"the Phi-curve range must satisfy 0 < mu_min < mu_max, "
                             f"got mu_min = {self.mu_min}, mu_max = {self.mu_max}")
        unknown = [c for c in self.channels if c not in CHANNELS]
        if unknown:
            raise ValueError(f"unknown sensitivity channels {unknown}; "
                             f"expected some of {CHANNELS}")


_DEFAULT_OVERRIDES = {
    "example1d": {"phi_curve_points": 41},
    "example2d": {"T": 0.05, "eps_fractions": (0.1, 0.5, 0.9)},
}

def load_config(experiment, path=None, **overrides):
    """Built-in defaults for the experiment, overridden by the config file
    section of the same name, then by keyword overrides (CLI flags).  Every
    key is checked before any value is parsed."""
    raw = {}
    if path is not None:
        parser = configparser.ConfigParser()
        with open(path) as fh:
            parser.read_file(fh)
        if parser.has_section(experiment):
            raw = dict(parser.items(experiment))
    overrides = {key: val for key, val in overrides.items() if val is not None}
    defaults = {f.name: f.default for f in fields(RunConfig) if f.name != "experiment"}
    unknown = (set(raw) | set(overrides)) - set(defaults)
    if unknown:
        raise ValueError(f"unknown or unsettable config keys: {sorted(unknown)}")
    values = dict(_DEFAULT_OVERRIDES.get(experiment, {}))
    values.update({key: _parse(defaults[key], text) for key, text in raw.items()})
    values.update(overrides)
    return RunConfig(experiment=experiment, **values)


def _parse(default, raw):
    """raw as a value of the type of default; a tuple as a list of values of
    the type of its first element."""
    if isinstance(default, tuple):
        return tuple(type(default[0])(tok) for tok in raw.replace(",", " ").split())
    return type(default)(raw.strip())


def echo_config(cfg):
    """Deterministic key = value listing for the metadata sidecar."""
    lines = []
    for f in fields(RunConfig):
        lines.append(f"{f.name} = {getattr(cfg, f.name)!r}")
    return "\n".join(lines) + "\n"
