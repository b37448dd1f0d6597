"""Coefficient distributions: exact low-order moments plus reproducible sampling.

Every supported law has mean exactly 0 and variance exactly 1; the third and
fourth moments are stored in closed form because they feed the expansion
constants downstream and must not be estimated.
"""

from dataclasses import dataclass, field

import numpy as np
from scipy.special import ndtri

from .errors import ConfigError

_SQRT3 = np.sqrt(3.0)

# Lowest uniform fed to the inverse normal CDF; ndtri(0) is -inf.
_U_FLOOR = 1e-300


@dataclass(frozen=True)
class CoefficientDistribution:
    """A mean-0, variance-1 coefficient law with exact m3 = E xi^3, m4 = E xi^4."""

    kind: str
    m3: float
    m4: float
    values: np.ndarray | None = field(default=None, repr=False)
    probs: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        if self.m4 < 1.0 + self.m3**2 - 1e-12:
            raise ConfigError(
                f"moment matrix not PSD: m4={self.m4} < 1 + m3^2={1 + self.m3 ** 2}"
            )

    def __str__(self):
        return self.kind


def gaussian() -> CoefficientDistribution:
    return CoefficientDistribution("gaussian", m3=0.0, m4=3.0)


def rademacher() -> CoefficientDistribution:
    return CoefficientDistribution("rademacher", m3=0.0, m4=1.0)


def uniform_sym() -> CoefficientDistribution:
    # Uniform on (-sqrt(3), sqrt(3)): E x^(2k) = 3^k/(2k+1).
    return CoefficientDistribution("uniform_sym", m3=0.0, m4=9.0 / 5.0)


def discrete_sym(values, probs) -> CoefficientDistribution:
    """Build a discrete law from a (value, probability) table.

    The table is rescaled to mean 0 and variance 1; m3 and m4 are then computed
    exactly from the standardized table.
    """
    v = np.asarray(values, dtype=float)
    p = np.asarray(probs, dtype=float)
    if v.ndim != 1 or v.shape != p.shape or v.size < 2:
        raise ConfigError("discrete law needs matching 1-d value/prob tables, >= 2 atoms")
    if np.any(p <= 0):
        raise ConfigError("discrete law probabilities must be positive")
    p = p / p.sum()
    mu = float(p @ v)
    var = float(p @ (v - mu) ** 2)
    if var <= 0:
        raise ConfigError("discrete law is degenerate (zero variance)")
    z = (v - mu) / np.sqrt(var)
    return CoefficientDistribution(
        "discrete_sym",
        m3=float(p @ z**3),
        m4=float(p @ z**4),
        values=z,
        probs=p,
    )


def from_name(name, values=None, probs=None) -> CoefficientDistribution:
    """Resolve a distribution by config name."""
    if name == "gaussian":
        return gaussian()
    if name == "rademacher":
        return rademacher()
    if name == "uniform_sym":
        return uniform_sym()
    if name == "discrete_sym":
        if values is None or probs is None:
            raise ConfigError("discrete_sym requires a value/prob table")
        return discrete_sym(values, probs)
    raise ConfigError(f"unsupported coefficient distribution kind: {name!r}")


def excess_cumulants(dist: CoefficientDistribution) -> tuple[float, float]:
    """(c3, c4) = (E xi^3, E xi^4 - 3): the differences against Gaussian moments."""
    return dist.m3, dist.m4 - 3.0


def trial_stream(seed: int, index: int) -> np.random.Generator:
    """Counter-based stream for one trial, a pure function of (seed, index).

    Philox keys are 128-bit; packing (seed, index) into disjoint halves gives
    independent streams without any shared state, so parallel trials are
    order-independent and reproducible.
    """
    key = (int(seed) & 0xFFFFFFFFFFFFFFFF) | (int(index) << 64)
    return np.random.Generator(np.random.Philox(key=key))


def sample(dist: CoefficientDistribution, stream: np.random.Generator, count: int) -> np.ndarray:
    """Draw `count` i.i.d. values from `dist`.

    All kinds consume exactly `count` uniforms from the stream, so runs with
    matched (seed, index) are coupled draw-by-draw across distributions.
    Gaussian draws use the inverse-CDF transform, fixed per build.
    """
    if count < 1:
        raise ConfigError("sample count must be >= 1")
    u = stream.random(count)
    return _from_uniforms(dist, u)


def _from_uniforms(dist, u):
    if dist.kind == "gaussian":
        return ndtri(np.maximum(u, _U_FLOOR))
    if dist.kind == "rademacher":
        return 1.0 - 2.0 * (u < 0.5)
    if dist.kind == "uniform_sym":
        return _SQRT3 * (2.0 * u - 1.0)
    if dist.kind == "discrete_sym":
        edges = np.cumsum(dist.probs)
        idx = np.minimum(np.searchsorted(edges, u, side="right"), dist.values.size - 1)
        return dist.values[idx]
    raise ConfigError(f"unsupported coefficient distribution kind: {dist.kind!r}")
