"""Exact mutual-information engines.

Two engines share one interface: a discrete engine over dense joint pmfs
and a Gaussian engine over labeled covariance matrices.  Every rate
expression elsewhere in the package is either evaluated through these
engines or cross-checked against them, so closed forms never go untested.

All information quantities are in bits (log base 2).  Real-valued systems
carry the 1/2 prefactor of a real AWGN channel; circularly-symmetric
complex systems carry prefactor 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "LabelError",
    "DegenerateCovarianceError",
    "JointPMF",
    "GaussianSystem",
    "entropy_discrete",
    "mutual_info_discrete",
    "mutual_info_gaussian",
    "prefactor",
]

_LOG2 = math.log(2.0)

# relative tolerance below which a required sub-determinant is treated as
# singular instead of being pushed through log()
_DET_RTOL = 1e-12

# variables with variance this small (relative to the largest variance in
# the system) are deterministic: they carry no information and are removed
# from query sets before determinants are taken
_ZERO_VAR_RTOL = 1e-15

_PSD_TOL = 1e-10
_MASS_TOL = 1e-12

_PREFACTOR = {"real": 0.5, "complex": 1.0}


def prefactor(field_kind: str) -> float:
    """Mutual-information prefactor: 1/2 for real signalling, 1 for
    circularly-symmetric complex."""
    try:
        return _PREFACTOR[field_kind]
    except KeyError:
        raise ValueError(f"unknown field_kind {field_kind!r}") from None


class LabelError(KeyError):
    """A queried variable name is not part of the system."""


def _positions(labels: tuple[str, ...], subset: Iterable[str]) -> list[int]:
    """Position of each name of ``subset`` in ``labels``; LabelError for a
    name that is not there."""
    idx = {name: i for i, name in enumerate(labels)}
    try:
        return [idx[name] for name in subset]
    except KeyError as exc:
        raise LabelError(exc.args[0]) from None


class DegenerateCovarianceError(ValueError):
    """A required sub-covariance is singular beyond tolerance."""

    def __init__(self, labels: Sequence[str]):
        self.labels = tuple(labels)
        super().__init__(
            f"covariance of {self.labels} is singular beyond relative tolerance {_DET_RTOL:g}"
        )


@dataclass(frozen=True)
class JointPMF:
    """Dense joint pmf over named finite-alphabet variables.

    ``table[i, j, ...]`` is the probability of the outcome with variable
    ``labels[0]`` at index i, ``labels[1]`` at index j, and so on.
    """

    labels: tuple[str, ...]
    table: np.ndarray = field(repr=False)

    def __post_init__(self):
        labels = tuple(self.labels)
        table = np.asarray(self.table, dtype=float)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "table", table)
        if len(set(labels)) != len(labels):
            raise ValueError(f"duplicate variable labels: {labels}")
        if table.ndim != len(labels):
            raise ValueError(
                f"table has {table.ndim} axes for {len(labels)} labels"
            )
        if any(s < 1 for s in table.shape):
            raise ValueError("every variable needs an alphabet of size >= 1")
        if np.any(table < -1e-15):
            raise ValueError("pmf entries must be nonnegative")
        mass = float(table.sum())
        if abs(mass - 1.0) > _MASS_TOL:
            raise ValueError(f"pmf mass {mass!r} is not 1 within {_MASS_TOL:g}")

    def axes_of(self, subset: Iterable[str]) -> list[int]:
        return _positions(self.labels, subset)

    def marginal(self, subset: Sequence[str]) -> np.ndarray:
        """Marginal table over ``subset``, axes in the given order."""
        keep = self.axes_of(subset)
        if len(set(keep)) != len(keep):
            raise ValueError(f"repeated labels in subset: {tuple(subset)}")
        drop = tuple(i for i in range(self.table.ndim) if i not in keep)
        m = self.table.sum(axis=drop) if drop else self.table
        # reorder remaining axes to match the requested order
        order = np.argsort(np.argsort(keep))
        return np.moveaxis(m, range(m.ndim), order) if m.ndim > 1 else m


@dataclass(frozen=True)
class GaussianSystem:
    """Jointly Gaussian variables identified by name.

    ``covariance`` is in signal-power units with receiver noise normalized
    to unit variance.  ``field_kind`` selects the mutual-information
    prefactor: "real" for real static channels (1/2), "complex" for
    circularly-symmetric baseband (1).
    """

    labels: tuple[str, ...]
    covariance: np.ndarray = field(repr=False)
    field_kind: str = "real"

    def __post_init__(self):
        labels = tuple(self.labels)
        cov = np.asarray(self.covariance)
        prefactor(self.field_kind)  # rejects an unknown field_kind
        cov = cov.astype(complex if self.field_kind == "complex" else float)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "covariance", cov)
        if len(set(labels)) != len(labels):
            raise ValueError(f"duplicate variable labels: {labels}")
        n = len(labels)
        if cov.shape != (n, n):
            raise ValueError(f"covariance shape {cov.shape} does not match {n} labels")
        if n == 0:
            return
        if not np.all(np.isfinite(cov)):
            raise ValueError("covariance entries must be finite")
        scale = max(1.0, float(np.abs(cov).max()))
        if float(np.abs(cov - cov.conj().T).max()) > _PSD_TOL * scale:
            raise ValueError("covariance is not symmetric/Hermitian within tolerance")
        if float(np.linalg.eigvalsh((cov + cov.conj().T) / 2).min()) < -_PSD_TOL * scale:
            raise ValueError("covariance is not positive semidefinite within tolerance")

    @property
    def prefactor(self) -> float:
        return _PREFACTOR[self.field_kind]

    def indices_of(self, subset: Iterable[str]) -> list[int]:
        return _positions(self.labels, subset)


def _entropy_bits(p: np.ndarray) -> float:
    p = p[p > 0.0]
    return float(-(p * (np.log(p) / _LOG2)).sum())


def entropy_discrete(pmf: JointPMF, subset: Sequence[str]) -> float:
    """Joint Shannon entropy H(subset) in bits."""
    if not subset:
        return 0.0
    return _entropy_bits(pmf.marginal(subset).ravel())


def _check_disjoint(a, b, c):
    a, b, c = tuple(a), tuple(b), tuple(c)
    if set(a) & set(b) or set(a) & set(c) or set(b) & set(c):
        raise ValueError(f"query sets must be pairwise disjoint: {a}, {b}, {c}")
    return a, b, c


def _conditional_mi(h, a, b, c) -> float:
    """I(A;B|C) = H(A,C) + H(B,C) - H(C) - H(A,B,C) from a joint entropy
    (or log-determinant) ``h`` of a tuple of names."""
    return h(a + c) + h(b + c) - h(c) - h(a + b + c)


def mutual_info_discrete(
    pmf: JointPMF, a: Sequence[str], b: Sequence[str], c: Sequence[str] = ()
) -> float:
    """Conditional mutual information I(A;B|C) in bits, clamped at 0.

    Evaluated as H(A,C) + H(B,C) - H(C) - H(A,B,C).
    """
    a, b, c = _check_disjoint(a, b, c)
    if not a or not b:
        return 0.0
    return max(_conditional_mi(lambda s: entropy_discrete(pmf, s), a, b, c), 0.0)


def _strip_deterministic(system: GaussianSystem, subset: tuple[str, ...]) -> tuple[str, ...]:
    # deterministic (zero-variance) variables are independent of everything
    # and contribute nothing; removing them keeps determinants well posed
    diag = np.real(np.diag(system.covariance))
    floor = _ZERO_VAR_RTOL * max(1.0, float(diag.max())) if diag.size else 0.0
    return tuple(l for l, i in zip(subset, system.indices_of(subset)) if diag[i] > floor)


def _logdet(system: GaussianSystem, subset: tuple[str, ...]) -> float:
    """log-determinant of the principal sub-covariance for ``subset``.

    Raises DegenerateCovarianceError when the sub-determinant falls below
    the relative tolerance (Hadamard bound as the scale).
    """
    if not subset:
        return 0.0
    idx = system.indices_of(subset)
    sub = system.covariance[np.ix_(idx, idx)]
    sub = (sub + sub.conj().T) / 2.0
    sign, logdet = np.linalg.slogdet(sub)
    hadamard = float(np.log(np.real(np.diag(sub))).sum())
    if not np.isfinite(logdet) or np.real(sign) <= 0.0 or logdet - hadamard < math.log(_DET_RTOL):
        raise DegenerateCovarianceError(subset)
    return float(np.real(logdet))


def mutual_info_gaussian(
    system: GaussianSystem, a: Sequence[str], b: Sequence[str], c: Sequence[str] = ()
) -> float:
    """Conditional mutual information I(A;B|C) in bits for a Gaussian system.

    Computed from determinant ratios of one shared covariance,

        I(A;B|C) = k * log2( det S_{AC} det S_{BC} / (det S_C det S_{ABC}) ),

    with k = 1/2 (real) or 1 (complex-circular) and det S_{} := 1.  The
    result is clamped at zero; deterministic variables are dropped from the
    query sets before determinants are taken.
    """
    a, b, c = _check_disjoint(a, b, c)
    a = _strip_deterministic(system, a)
    b = _strip_deterministic(system, b)
    c = _strip_deterministic(system, c)
    if not a or not b:
        return 0.0
    val = _conditional_mi(lambda s: _logdet(system, s), a, b, c)
    return max(system.prefactor * val / _LOG2, 0.0)
