"""Quadrature grids and the dense symmetric kernel eigensolver.

Mode expansions here use the 2 pi spectral normalization: two functions
f, g on a frequency grid are orthonormal when (1/2pi) int f g = delta.
``decompose_kernel`` solves the continuous eigenproblem

    (1/2pi) int K(w, w') phi(w') dw' = lam phi(w)

by weight-symmetrizing the discretized kernel, which keeps the matrix
symmetric so a dense symmetric eigensolver applies.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import DomainError

TWO_PI = 2.0 * np.pi


@dataclass(frozen=True, eq=False)
class Grid:
    """Quadrature nodes and weights over one spectral band.

    nodes are strictly ascending, weights positive, both in the same
    (dimensionless) frequency unit. ``band_center`` records the absolute
    offset of this band from the carrier so that absolute detunings can
    be reconstructed as band_center + node. ``lo``/``hi`` are the exact
    integration interval, which for Gauss rules extends slightly beyond
    the outermost nodes.
    """

    nodes: np.ndarray
    weights: np.ndarray
    band_center: float = 0.0
    lo: float = field(default=None)
    hi: float = field(default=None)

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        weights = np.asarray(self.weights, dtype=float)
        if nodes.ndim != 1 or nodes.shape != weights.shape:
            raise DomainError("grid nodes and weights must be 1-d and equal length")
        if nodes.size < 3:
            raise DomainError("grid needs at least 3 nodes")
        if np.any(np.diff(nodes) <= 0):
            raise DomainError("grid nodes must be strictly ascending")
        if np.any(weights <= 0):
            raise DomainError("grid weights must be positive")
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "lo", float(nodes[0]) if self.lo is None else float(self.lo))
        object.__setattr__(self, "hi", float(nodes[-1]) if self.hi is None else float(self.hi))

    @property
    def n(self):
        return self.nodes.size

    @property
    def span(self):
        return self.hi - self.lo


@lru_cache(maxsize=None)
def _gauss_legendre(n):
    """Gauss-Legendre nodes and weights on [-1, 1], computed once per n.

    The arrays are shared between callers and therefore read-only.
    """
    x, w = np.polynomial.legendre.leggauss(n)
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


def make_band_grid(width, n, rule="gauss", center=0.0, padding=0.0):
    """Build a Gauss-Legendre grid over [-width/2 - pad, width/2 + pad].

    ``padding`` may be a scalar or a (below, above) pair; an asymmetric
    pad is used when one side of a band must stop short of the carrier.
    "gauss" is the only rule; any other is rejected.
    """
    if rule != "gauss":
        raise DomainError("unknown quadrature rule %r" % rule)
    if width <= 0:
        raise DomainError("band width must be positive")
    try:
        pad_lo, pad_hi = padding
    except TypeError:
        pad_lo = pad_hi = padding
    if pad_lo < 0 or pad_hi < 0:
        raise DomainError("padding must be nonnegative")
    lo = -width / 2.0 - pad_lo
    hi = width / 2.0 + pad_hi
    x, w = _gauss_legendre(int(n))
    nodes = 0.5 * (hi - lo) * x + 0.5 * (hi + lo)
    weights = 0.5 * (hi - lo) * w
    return Grid(nodes=nodes, weights=weights, band_center=float(center), lo=lo, hi=hi)


def integrate(values, grid):
    """Quadrature of sampled values against the grid weights."""
    values = np.asarray(values, dtype=float)
    if values.shape != grid.nodes.shape:
        raise DomainError("values do not match the grid")
    return float(np.dot(grid.weights, values))


def mode_overlap(f, g, grid):
    """Inner product (1/2pi) int f g under which modes are orthonormal."""
    f = np.asarray(f, dtype=float)
    g = np.asarray(g, dtype=float)
    if f.shape != grid.nodes.shape or g.shape != grid.nodes.shape:
        raise DomainError("mode samples do not match the grid")
    return float(np.dot(grid.weights, f * g)) / TWO_PI


@dataclass(frozen=True, eq=False)
class ModeDecomposition:
    """Eigenpairs of a symmetric spectral kernel on a grid.

    eigenvalues are sorted by descending magnitude; modes[:, j] samples
    the j-th eigenfunction, normalized to (1/2pi) int mode^2 = 1 and
    sign-fixed so the first significant value outward from the band
    center is positive.
    """

    eigenvalues: np.ndarray
    modes: np.ndarray
    grid: Grid

    @property
    def trace(self):
        return float(np.sum(self.eigenvalues))

    def significant(self, rel_tol=1e-6):
        """Indices of eigenvalues above rel_tol times the leading one."""
        lead = abs(self.eigenvalues[0])
        if lead == 0.0:
            return np.array([], dtype=int)
        return np.nonzero(np.abs(self.eigenvalues) > rel_tol * lead)[0]


def decompose_kernel(kernel, grid):
    """Schmidt decomposition of a symmetric kernel sampled on a grid.

    The continuous operator f -> (1/2pi) int K(w, w') f(w') dw' is
    discretized as M = sqrt(w) K sqrt(w) / 2pi, which is symmetric, and
    eigenvectors are mapped back to function samples via
    phi_i = v_i sqrt(2pi / w_i). Eigenvalue sum equals the quadrature of
    the kernel diagonal over 2pi (trace identity).
    """
    kernel = np.asarray(kernel, dtype=float)
    n = grid.n
    if kernel.shape != (n, n):
        raise DomainError("kernel shape does not match the grid")
    scale = max(1.0, float(np.abs(kernel).max()))
    if np.abs(kernel - kernel.T).max() > 1e-8 * scale:
        raise DomainError("kernel is not symmetric")
    sw = np.sqrt(grid.weights)
    sym = (sw[:, None] * kernel * sw[None, :]) / TWO_PI
    sym = 0.5 * (sym + sym.T)  # remove roundoff asymmetry before eigh
    lam, vec = np.linalg.eigh(sym)
    order = np.argsort(-np.abs(lam), kind="stable")
    lam = lam[order]
    vec = vec[:, order]
    modes = vec / sw[:, None] * np.sqrt(TWO_PI)
    # sign fix: scan each column center, +1, -1, +2, -2, ... and make its
    # first sample above 1e-8 of the column peak positive
    offset = np.arange(n) - int(np.argmin(np.abs(grid.nodes)))
    scanned = modes[np.argsort(2 * np.abs(offset) - (offset > 0))]
    mag = np.abs(scanned)
    first = np.argmax(mag > 1e-8 * mag.max(axis=0), axis=0)
    modes *= np.where(scanned[first, np.arange(n)] < 0, -1.0, 1.0)
    return ModeDecomposition(eigenvalues=lam, modes=modes, grid=grid)
