"""Workspace boxes and deterministic low-discrepancy sampling.

All suprema and residual sweeps in the toolkit are taken over axis-aligned
boxes in configuration space, optionally crossed with a momentum ball.
Sampling uses a Halton sequence so that reports are reproducible without
carrying RNG state around.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EmptyWorkspace

_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def halton(count: int, dim: int, skip: int = 0) -> np.ndarray:
    """First `count` Halton points in [0, 1)^dim, skipping `skip` entries.

    Index 0 of the sequence is dropped (it is the all-zero point).
    """
    if dim > len(_PRIMES):
        raise ValueError(f"halton supports at most {len(_PRIMES)} dimensions")
    index = np.arange(skip + 1, skip + count + 1, dtype=np.int64)
    out = np.empty((count, dim))
    for d, base in enumerate(_PRIMES[:dim]):
        # the van der Corput radical inverse of every index at once, one digit
        # position per pass; exhausted indices add 0.0, leaving their sums as they are
        i = index
        inv = np.zeros(count)
        denom = 1.0
        while np.any(i > 0):
            denom *= base
            i, digit = np.divmod(i, base)
            inv += digit / denom
        out[:, d] = inv
    return out


@dataclass(frozen=True)
class Box:
    """Axis-aligned box, the region over which workspace suprema are taken."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lower = np.asarray(self.lower, dtype=float)
        upper = np.asarray(self.upper, dtype=float)
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)
        if lower.shape != upper.shape or lower.ndim != 1:
            raise ValueError("box bounds must be 1-d arrays of equal length")
        if np.any(upper < lower):
            raise EmptyWorkspace("box upper bound below lower bound")

    @property
    def dim(self) -> int:
        return self.lower.size

    def contains(self, q: np.ndarray, atol: float = 0.0) -> bool:
        q = np.asarray(q, dtype=float)
        return bool(np.all(q >= self.lower - atol) and np.all(q <= self.upper + atol))

    def center(self) -> np.ndarray:
        return 0.5 * (self.lower + self.upper)

    def corners(self) -> np.ndarray:
        """All 2^dim corner points (dim is small for the systems here)."""
        d = self.dim
        out = np.empty((2**d, d))
        for i in range(2**d):
            for j in range(d):
                out[i, j] = self.upper[j] if (i >> j) & 1 else self.lower[j]
        return out

    def sample(self, count: int, skip: int = 0) -> np.ndarray:
        """Halton points mapped into the box, shape (count, dim)."""
        if count < 1:
            raise EmptyWorkspace("requested an empty sample set")
        u = halton(count, self.dim, skip=skip)
        return self.lower + u * (self.upper - self.lower)


def ball_sample(count: int, dim: int, radius: float, skip: int = 0) -> np.ndarray:
    """Halton points mapped into the closed ball of given radius.

    Directions come from the cube (rejecting near-zero vectors), radii from an
    extra Halton coordinate with the usual r^(1/dim) volume correction.
    """
    pts = np.empty((count, dim))
    filled = 0
    offset = skip
    while filled < count:
        u = halton(count - filled, dim + 1, skip=offset)
        offset += count - filled
        direction = 2.0 * u[:, :dim] - 1.0
        norms = np.linalg.norm(direction, axis=1)
        keep = norms > 1e-9
        direction = direction[keep] / norms[keep, None]
        r = radius * u[keep, dim] ** (1.0 / dim)
        take = min(direction.shape[0], count - filled)
        pts[filled : filled + take] = direction[:take] * r[:take, None]
        filled += take
    return pts
