"""Graded coordinate spaces with nested level norms and partial quadrants.

A GradedSpace is the finite-dimensional substrate everything else computes
over: one coordinate space, a family of weighted l1 norms indexed by a level
m = 0..levels, and a marking of the first `quadrant_rank` coordinates as
constrained to be nonnegative.  Because all weights are >= 1 the level norms
are nested: ||x||_m <= ||x||_{m+1}.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

DEFAULT_TOL = 1e-9


def default_weights(dim: int) -> np.ndarray:
    """Per-coordinate weights 2**(i/dim), spread so levels differ without overflow."""
    return 2.0 ** (np.arange(dim) / dim)


@dataclass(frozen=True)
class GradedSpace:
    """A coordinate space with weighted level norms and a quadrant marking.

    Attributes
    ----------
    dim : number of coordinates (0 is allowed for degenerate factors).
    levels : top level M of the norm family; valid levels are 0..M.
    weights : per-coordinate weights, all >= 1.
    quadrant_rank : first n coordinates are constrained nonnegative when the
        space carries its partial quadrant.
    """

    dim: int
    levels: int = 3
    weights: np.ndarray | None = None
    quadrant_rank: int = 0

    def __post_init__(self):
        if self.dim < 0:
            raise ValueError(f"dim must be nonnegative, got {self.dim}")
        if self.levels < 1:
            raise ValueError(f"levels must be positive, got {self.levels}")
        w = default_weights(self.dim) if self.weights is None else np.asarray(self.weights, dtype=float)
        if w.shape != (self.dim,):
            raise ValueError(f"weights must have length {self.dim}")
        if np.any(w < 1.0):
            raise ValueError("all weights must be >= 1")
        w = w.copy()
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)
        # weights**m for every level, computed once: norms are taken often
        object.__setattr__(self, "_level_weights", tuple(w**m for m in range(self.levels + 1)))
        if not 0 <= self.quadrant_rank <= self.dim:
            raise ValueError(f"quadrant_rank must lie in [0, {self.dim}]")

    def _key(self):
        return (self.dim, self.levels, self.quadrant_rank, self.weights.tobytes())

    # by value: the generated methods would compare and hash the weights array
    def __eq__(self, other):
        if not isinstance(other, GradedSpace):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def check_level(self, m: int) -> None:
        if not 0 <= m <= self.levels:
            raise ValueError(f"level {m} out of range [0, {self.levels}]")

    def level_norm(self, coords, m: int):
        """Weighted l1 norm sum_i weights_i**m * |x_i| at level m.

        A (k, dim) stack of rows gives the k row norms as an array; each
        equals the norm of its row bit for bit.
        """
        self.check_level(m)
        x = np.asarray(coords, dtype=float)
        if x.ndim not in (1, 2) or x.shape[-1] != self.dim:
            raise ValueError(f"expected {self.dim} coordinates, got shape {x.shape}")
        terms = np.abs(x)
        if m:
            # weights**0 is all ones, and 1.0 * t == t
            terms = self._level_weights[m] * terms
        norms = np.add.reduce(terms, -1)
        return float(norms) if x.ndim == 1 else norms

    def vector(self, coords, declared_level: int | None = None) -> GradedVector:
        return GradedVector(np.asarray(coords, dtype=float), self, declared_level)

    def zero(self) -> GradedVector:
        return self.vector(np.zeros(self.dim))

    def contains_quadrant_point(self, coords, tol: float = DEFAULT_TOL):
        """x_i >= -tol for every i < quadrant_rank; a (k, dim) stack of rows
        gives one bool per row."""
        x = np.asarray(coords, dtype=float)
        inside = np.all(x[..., : self.quadrant_rank] >= -tol, axis=-1)
        return bool(inside) if x.ndim == 1 else inside


@dataclass(frozen=True)
class GradedVector:
    """A point of a GradedSpace with a regularity-level bookkeeping tag.

    declared_level records the level the point is known to live on; raising
    operations increment it.  Defaults to the top level (closed-form data is
    smooth).
    """

    coords: np.ndarray
    space: GradedSpace
    declared_level: int | None = None

    def __post_init__(self):
        c = np.asarray(self.coords, dtype=float).copy()
        if c.shape != (self.space.dim,):
            raise ValueError(f"coords length {c.shape} != space dim {self.space.dim}")
        c.setflags(write=False)
        object.__setattr__(self, "coords", c)
        lvl = self.space.levels if self.declared_level is None else int(self.declared_level)
        if not 0 <= lvl <= self.space.levels:
            raise ValueError(f"declared_level {lvl} out of range [0, {self.space.levels}]")
        object.__setattr__(self, "declared_level", lvl)

    def _key(self):
        return (self.space, self.declared_level, self.coords.tobytes())

    # by value, as GradedSpace: the generated methods would compare and hash the coords array
    def __eq__(self, other):
        if not isinstance(other, GradedVector):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def norm(self, m: int) -> float:
        return self.space.level_norm(self.coords, m)

    def raised(self) -> GradedVector:
        """Same point, declared one level more regular (capped at the top level)."""
        return GradedVector(self.coords, self.space, min(self.declared_level + 1, self.space.levels))
