"""Session configuration: line-oriented `key = value` files declaring the
named constants (rational or algebraic), seeds and caps.

Constant forms:
    name = rational "p/q"
    name = algebraic { minpoly = [c0, c1, ..., cd], interval = ["lo", "hi"] }
Everything validates through the exact number-field constructors at load.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field as dc_field
from fractions import Fraction

from .bohr import BohrBounds
from .errors import GparithError
from .exactnum import AlgebraicReal, field_create
from .focheck import BoundProfile


class ConfigError(GparithError):
    pass


_RATIONAL = re.compile(r'^rational\s+"(?P<val>-?\d+(?:/\d+)?)"$')
_ALGEBRAIC = re.compile(
    r'^algebraic\s*\{\s*minpoly\s*=\s*\[(?P<poly>[-\d,\s]+)\]\s*,\s*'
    r'interval\s*=\s*\[\s*"(?P<lo>-?\d+(?:/\d+)?)"\s*,\s*"(?P<hi>-?\d+(?:/\d+)?)"\s*\]\s*\}$')

_INT_KEYS = {
    "seed", "C",
    "n2_cap", "M_cap", "H_cap", "m_cap", "max_range",
    "bohr_N_cap", "bohr_M_cap", "bohr_L_cap", "bohr_h_cap", "bohr_n_cap",
    "bohr_outer_cap", "bohr_seq_len",
}

DEFAULT_CONFIG_TEXT = """\
alpha = algebraic { minpoly = [-2, 0, 0, 1], interval = ["5/4", "13/10"] }
beta = rational "1"
bohr_alpha = algebraic { minpoly = [-2, 0, 1], interval = ["1", "2"] }
rho = rational "1/5"
seed = 12648430
C = 2
"""


@dataclass
class SessionConfig:
    constants: dict = dc_field(default_factory=dict)
    ints: dict = dc_field(default_factory=dict)
    out: str | None = None

    @property
    def seed(self) -> int:
        return self.ints.get("seed", 0xC0FFEE)

    @property
    def C(self) -> int:
        return self.ints.get("C", 2)

    def constant(self, name: str):
        try:
            return self.constants[name]
        except KeyError:
            raise ConfigError(f"constant {name!r} is not declared") from None

    def bound_profile(self) -> BoundProfile:
        kw = {}
        for key in ("n2_cap", "M_cap", "H_cap", "m_cap", "max_range"):
            if key in self.ints:
                kw[key] = self.ints[key]
        return BoundProfile(**kw)

    def bohr_bounds(self) -> BohrBounds:
        kw = {}
        for key in ("N_cap", "M_cap", "L_cap", "h_cap", "n_cap", "outer_cap",
                    "seq_len"):
            cfg_key = f"bohr_{key}"
            if cfg_key in self.ints:
                kw[key] = self.ints[cfg_key]
        return BohrBounds(**kw)


def parse_config(text: str) -> SessionConfig:
    cfg = SessionConfig()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected `key = value`")
        key, value = line.split("=", 1)
        key, value = key.strip(), value.strip()
        if key in _INT_KEYS:
            try:
                cfg.ints[key] = int(value)
            except ValueError:
                raise ConfigError(f"line {lineno}: {key} needs an integer") from None
            continue
        if key == "out":
            cfg.out = value.strip('"')
            continue
        m = _RATIONAL.match(value)
        if m:
            cfg.constants[key] = Fraction(m.group("val"))
            continue
        m = _ALGEBRAIC.match(value)
        if m:
            coeffs = [int(c) for c in m.group("poly").split(",")]
            field = field_create(coeffs, (Fraction(m.group("lo")),
                                          Fraction(m.group("hi"))))
            cfg.constants[key] = field.theta
            continue
        raise ConfigError(f"line {lineno}: cannot parse value for {key!r}")
    return cfg


def load_config(path: str | None) -> SessionConfig:
    if path is None:
        return parse_config(DEFAULT_CONFIG_TEXT)
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())


def as_algebraic(value, name: str = "constant") -> AlgebraicReal:
    if isinstance(value, AlgebraicReal):
        return value
    raise ConfigError(f"{name} must be algebraic (got rational {value})")


def beta_for_lane(value) -> int:
    """Integer beta needed by the fast lanes; rationals must be integral."""
    if isinstance(value, Fraction) and value.denominator == 1:
        return int(value)
    if isinstance(value, int):
        return value
    raise ConfigError("beta must be an integer for the scanning lanes "
                      f"(got {value!r})")
