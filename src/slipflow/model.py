"""Problem data for viscous flow in a slip channel.

The domain is a periodic channel ``(0, 2*pi*L) x (-1, 1)``: periodic in x1
with period ``2*pi*L``, walls at ``x2 = +/-1``.  The fluid has viscosity
``mu > 0`` and satisfies Navier-type slip conditions with friction
coefficients ``xi_plus`` (top wall) and ``xi_minus`` (bottom wall):

    u2 = 0           on both walls,
    mu * d2 u1 =  xi_plus  * u1   at x2 = +1,
    mu * d2 u1 = -xi_minus * u1   at x2 = -1.

The sign convention is the destabilizing one: the walls feed energy into
the fluid at rate ``xi_plus * u1(+1)**2 + xi_minus * u1(-1)**2``.  Both
coefficients are nonnegative and at least one must be positive; a single
inert wall (one coefficient zero) is allowed.

Perturbations are resolved in Fourier modes ``exp(i*n*x1/L)``, so the
admissible wavenumbers form the lattice ``k = n / L``, ``n = 1, 2, ...``.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

__all__ = [
    "SlipPair",
    "ChannelConfig",
    "ModeProblem",
    "LatticeSweep",
    "ValidationError",
    "ConfigError",
    "load_config",
    "channel_from_config",
    "ENV_PREFIX",
]

ENV_PREFIX = "SLIPFLOW_"


class ValidationError(ValueError):
    """A model parameter is out of its admissible range."""


class ConfigError(ValueError):
    """A configuration file or override entry is missing or malformed."""


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ValidationError(message)


def _finite(x) -> bool:
    try:
        return x == x and abs(float(x)) != float("inf")
    except (TypeError, ValueError):
        return False


@dataclass(frozen=True)
class SlipPair:
    """Wall friction coefficients ``(xi_minus, xi_plus)``, both >= 0."""

    xi_minus: float
    xi_plus: float

    def __post_init__(self):
        _require(_finite(self.xi_minus), "slip.xi_minus: must be a finite number")
        _require(_finite(self.xi_plus), "slip.xi_plus: must be a finite number")
        _require(self.xi_minus >= 0.0, "slip.xi_minus: must be >= 0")
        _require(self.xi_plus >= 0.0, "slip.xi_plus: must be >= 0")

    @property
    def total(self) -> float:
        return self.xi_minus + self.xi_plus


@dataclass(frozen=True)
class ChannelConfig:
    """Channel geometry and fluid parameters: period ``2*pi*L``, viscosity ``mu``."""

    L: float
    mu: float
    slip: SlipPair

    def __post_init__(self):
        _require(_finite(self.L) and self.L > 0.0, "period_length: must be > 0")
        _require(_finite(self.mu) and self.mu > 0.0, "viscosity: must be > 0")


@dataclass(frozen=True)
class ModeProblem:
    """Single-wavenumber instability problem: wavenumber ``k``, viscosity, slip."""

    k: float
    mu: float
    slip: SlipPair

    def __post_init__(self):
        _require(_finite(self.k) and self.k > 0.0, "k: must be > 0")
        _require(_finite(self.mu) and self.mu > 0.0, "viscosity: must be > 0")


@dataclass(frozen=True)
class LatticeSweep:
    """Range of lattice modes ``n = 1 .. n_max`` of a channel."""

    L: float
    mu: float
    slip: SlipPair
    n_max: int

    def __post_init__(self):
        _require(_finite(self.L) and self.L > 0.0, "period_length: must be > 0")
        _require(_finite(self.mu) and self.mu > 0.0, "viscosity: must be > 0")
        _require(
            int(self.n_max) == self.n_max and self.n_max >= 1,
            "n_max: must be an integer >= 1",
        )

    def problem(self, n: int) -> ModeProblem:
        """The instability problem of lattice mode n, wavenumber ``k = n / L``."""
        _require(1 <= n <= self.n_max, "n: mode index out of sweep range")
        return ModeProblem(k=n / self.L, mu=self.mu, slip=self.slip)


# ---------------------------------------------------------------------------
# Configuration files
#
# JSON with nested sections.  Recognized keys:
#   period_length          float > 0
#   viscosity              float > 0
#   slip.xi_minus          float >= 0
#   slip.xi_plus           float >= 0
# plus free-form "sim" and "experiment" sections consumed elsewhere.
# Environment variables override file values:  SLIPFLOW_<KEY> for top-level
# keys and SLIPFLOW_<SECTION>__<KEY> for nested ones (case-insensitive key,
# double underscore separates section from key), e.g. SLIPFLOW_VISCOSITY=0.3
# or SLIPFLOW_SLIP__XI_PLUS=2.
# ---------------------------------------------------------------------------


def _parse_env_value(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return text


def apply_env_overrides(raw: dict, environ=None) -> dict:
    """Overlay SLIPFLOW_* environment variables onto a raw config dict.

    Names are case-insensitive: a new key is stored lower case, and a key
    the section already holds keeps its spelling.
    """
    env = os.environ if environ is None else environ
    out = json.loads(json.dumps(raw))  # deep copy, JSON-clean
    for name, text in sorted(env.items()):
        if not name.startswith(ENV_PREFIX):
            continue
        path = name[len(ENV_PREFIX):].lower()
        if "__" in path:
            section, key = path.split("__", 1)
            if not section or not key:
                raise ConfigError(f"{name}: malformed override name")
            target = out.setdefault(section, {})
            if not isinstance(target, dict):
                raise ConfigError(f"{section}: cannot override a scalar with a section")
            # replace the key the section already spells in another case
            key = next((k for k in target if k.lower() == key), key)
            target[key] = _parse_env_value(text)
        else:
            out[path] = _parse_env_value(text)
    return out


def load_config(path) -> dict:
    """Read a JSON config file.

    Returns the raw (nested dict) configuration; overlay the environment
    with ``apply_env_overrides`` and validate the channel keys with
    ``channel_from_config``.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path}: invalid JSON ({exc})")
    if not isinstance(raw, dict):
        raise ConfigError(f"config file {path}: top level must be an object")
    return raw


def _get_number(raw: dict, key: str, *, section: str | None = None):
    src = raw
    label = key
    if section is not None:
        src = raw.get(section)
        label = f"{section}.{key}"
        if src is None:
            raise ConfigError(f"{section}: missing section")
        if not isinstance(src, dict):
            raise ConfigError(f"{section}: must be a section (JSON object)")
    if key not in src:
        raise ConfigError(f"{label}: missing key")
    value = src[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{label}: must be a number, got {value!r}")
    return float(value)


def channel_from_config(raw: dict) -> ChannelConfig:
    """Validate the channel keys of a raw config dict into a ChannelConfig."""
    L = _get_number(raw, "period_length")
    mu = _get_number(raw, "viscosity")
    xi_minus = _get_number(raw, "xi_minus", section="slip")
    xi_plus = _get_number(raw, "xi_plus", section="slip")
    try:
        return ChannelConfig(L=L, mu=mu, slip=SlipPair(xi_minus=xi_minus, xi_plus=xi_plus))
    except ValidationError as exc:
        raise ConfigError(str(exc))
