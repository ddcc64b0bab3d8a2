"""Run configuration: flat key-value text files with one section per experiment.

Files are standard INI as read by configparser.  Every experiment has
built-in defaults (the published problem parameters); a config file
overrides individual keys in the section named after the experiment.  One
file may hold sections for several experiments, and a section that names
none (a misspelled "[example1D]") is an error:

    [example1d]
    variant = discontinuous
    n_el = 62
    eps_fractions = 0.2, 0.5, 0.9

Keys and types (defaults in parentheses):
    variant           str    1D case: isotropic | discontinuous (isotropic)
    n_el              int    1D element count (62, i.e. h ~ 1/20 on [0, pi];
                             65, i.e. n = 64, in oracle-check)
    h                 float  2D grid spacing (1/30)
    T                 float  horizon (0.01 in 1D, 0.05 in 2D)
    alpha             float  control weight (1e-4)
    diffusion_jump    float  coefficient jump a of 1 + a*chi_[gamma, pi] (-0.8)
    interface         float  jump location gamma (2.2)
    beta_lo, beta_hi  float  active window of beta as fractions of T (1/3, 2/3)
    w_indicator       2 floats   1D target-trajectory indicator interval a, b
    ystar_indicator   2 floats   1D final-target indicator interval a, b
                             (each with 0 <= a < b <= pi)
    eps_fractions     floats  constraint levels as fractions of Phi(0), in (0, 1]
                             ((0.2, 0.5, 0.9); (0.1, 0.5, 0.9) in example2d)
    phi_curve_points  int    number of log-spaced mu samples (350; 41 in example1d)
    mu_min, mu_max    float  Phi-curve sampling range (1e-7, 1e12)
    nu_list           floats sensitivity magnitudes in [0, 1) (1e-2, 1e-3, 1e-4)
    channels          strs   sensitivity channels (all six)
    seed              int    random seed of the sensitivity directions (0)
    out_dir           str    output directory, also set by --out (out)

A verb's section may set only the keys the verb reads (VERBS), where "the
1D problem" is variant, n_el, diffusion_jump, interface, T, alpha,
beta_lo, beta_hi, w_indicator and ystar_indicator:
    example1d     the 1D problem, eps_fractions, phi_curve_points, mu_min, mu_max
    example2d     h, T, alpha, beta_lo, beta_hi, eps_fractions
    phi-curve     the 1D problem, phi_curve_points, mu_min, mu_max
    convergence   T, alpha, beta_lo, beta_hi, w_indicator, ystar_indicator;
                  its 2d-smooth rows read alpha, beta_lo and beta_hi, and
                  keep example2d's T = 0.05
    sensitivity   the 1D problem, nu_list, channels, seed
    oracle-check  the 1D problem
and every verb reads out_dir.  diffusion_jump takes effect with variant =
discontinuous only.

Each key is parsed as the type of its default; a list takes the type of
the default's first element.  A value of another type is an error that
names the key, and so is a float or list entry that is not finite, a
negative seed, and an indicator interval that is not two entries with 0 <=
a < b <= pi (one outside [0, pi] or reversed projects to zero data).  Keys
are case-sensitive.  The experiment is the verb's, not a key.  The lists
eps_fractions, nu_list and channels must not be empty.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, fields
from typing import NamedTuple

import numpy as np

from .sensitivity import CHANNELS

PI = np.pi


class Verb(NamedTuple):
    keys: tuple      # the RunConfig keys the verb reads, the only settable ones
    defaults: dict   # the verb's defaults where they differ from RunConfig's


_PROBLEM = ("T", "alpha", "beta_lo", "beta_hi")
_DATA_1D = ("w_indicator", "ystar_indicator")
_PROBLEM_1D = ("variant", "n_el", "diffusion_jump", "interface", *_PROBLEM, *_DATA_1D)
_CURVE = ("phi_curve_points", "mu_min", "mu_max")

VERBS = {
    "example1d": Verb((*_PROBLEM_1D, "eps_fractions", *_CURVE, "out_dir"),
                      {"phi_curve_points": 41}),
    "example2d": Verb(("h", *_PROBLEM, "eps_fractions", "out_dir"),
                      {"T": 0.05, "eps_fractions": (0.1, 0.5, 0.9)}),
    "phi-curve": Verb((*_PROBLEM_1D, *_CURVE, "out_dir"), {}),
    "convergence": Verb((*_PROBLEM, *_DATA_1D, "out_dir"), {}),
    "sensitivity": Verb((*_PROBLEM_1D, "nu_list", "channels", "seed", "out_dir"), {}),
    "oracle-check": Verb((*_PROBLEM_1D, "out_dir"), {"n_el": 65}),
}


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
    channels: tuple = CHANNELS
    seed: int = 0
    out_dir: str = "out"

    def __post_init__(self):
        if self.experiment not in VERBS:
            raise ValueError(f"unknown experiment {self.experiment!r}")
        for f in fields(self):
            value = getattr(self, f.name)
            if any(isinstance(x, float) and not np.isfinite(x)
                   for x in (value if isinstance(value, tuple) else (value,))):
                raise ValueError(f"{f.name} must be finite, got {value}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
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
        for key in _DATA_1D:
            interval = getattr(self, key)
            if len(interval) != 2:
                raise ValueError(f"{key} must have two entries a, b, got {interval}")
            if not 0 <= interval[0] < interval[1] <= PI:
                raise ValueError(f"{key} must satisfy 0 <= a < b <= pi, got {interval}")
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


def load_config(experiment, path=None, **overrides):
    """Built-in defaults for the experiment, overridden by the config file
    section of the same name, then by keyword overrides (CLI flags).  Every
    section must name an experiment, and every key must be one the
    experiment reads; all are checked before any value is parsed."""
    if experiment not in VERBS:
        raise ValueError(f"unknown experiment {experiment!r}")
    raw = {}
    if path is not None:
        parser = configparser.ConfigParser()
        parser.optionxform = str    # keys keep their case: T is not t
        with open(path) as fh:
            parser.read_file(fh)
        stray = [name for name in parser.sections() if name not in VERBS]
        if stray:
            raise ValueError(f"config sections {stray} name no experiment;"
                             f" expected any of {list(VERBS)}")
        if parser.has_section(experiment):
            raw = dict(parser.items(experiment))
    overrides = {key: val for key, val in overrides.items() if val is not None}
    verb = VERBS[experiment]
    unknown = (set(raw) | set(overrides)) - set(verb.keys)
    if unknown:
        raise ValueError(f"unknown or unsettable config keys for {experiment}: "
                         f"{sorted(unknown)}; it reads {list(verb.keys)}")
    defaults = {f.name: f.default for f in fields(RunConfig)}
    values = dict(verb.defaults)
    values.update({key: _parse(key, defaults[key], text) for key, text in raw.items()})
    values.update(overrides)
    return RunConfig(experiment=experiment, **values)


def _parse(key, default, raw):
    """raw as a value of the type of default; a tuple as a list of values of
    the type of its first element.  Raises ValueError naming key, raw and
    the expected type."""
    many = isinstance(default, tuple)
    kind = type(default[0]) if many else type(default)
    try:
        if many:
            return tuple(kind(tok) for tok in raw.replace(",", " ").split())
        return kind(raw.strip())
    except ValueError:
        expected = f"a list of {kind.__name__}" if many else kind.__name__
        raise ValueError(f"config key {key} = {raw!r}: expected {expected}") from None


def echo_config(cfg):
    """Deterministic key = value listing of the keys the experiment reads,
    for the metadata sidecar."""
    return "".join(f"{key} = {getattr(cfg, key)!r}\n"
                   for key in VERBS[cfg.experiment].keys)
