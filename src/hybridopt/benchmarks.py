"""Scalable base test functions plus the shift / rotation / partition pipeline.

The analytic forms follow the usual CEC / SOCO definitions (Ackley with
constants 20, 0.2, 2*pi; Weierstrass with a=0.5, b=3, k_max=20, ...).  Every
base function has minimum value 0 at its canonical optimum and accepts any
dimension d >= 2.  Weierstrass reduces each b^k (z + 0.5) mod 1 before the
cosine; that moved its values by <= ~1e-9, closer to the exact series.
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass, field

import numpy as np

from .core import Bounds, ParseError, rng_stream


class UnknownFunction(ValueError):
    pass


class DimensionMismatch(ValueError):
    pass


class InvalidPartition(ValueError):
    pass


# ---------------------------------------------------------------------------
# base functions
# ---------------------------------------------------------------------------
#
# Each takes an (n, d) block Z, one point per row, and returns the n values.
# The value of a row does not depend on the other rows of its block, bit for
# bit: elementwise terms are summed per row with ``np.sum(axis=1)``, and dot
# products are one stacked (1, d) @ (d, 1) matmul, each row by ``np.dot``'s
# routine (``einsum`` or a block matrix-vector product sums in another order).

def _row_dots(a, b):
    """np.dot(a[i], b[i]) for every row i."""
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


def _sphere(Z):
    return _row_dots(Z, Z)


@functools.lru_cache(maxsize=None)
def _elliptic_weights(d: int) -> np.ndarray:
    w = np.power(1e6, np.arange(d) / (d - 1))
    w.flags.writeable = False  # shared by every call at this d
    return w


def _elliptic(Z):
    d = Z.shape[1]
    if d == 1:
        return Z[:, 0] * Z[:, 0]
    w = _elliptic_weights(d)
    return ((Z * Z)[:, None, :] @ w)[:, 0]


def _bent_cigar(Z):
    return Z[:, 0] * Z[:, 0] + 1e6 * _row_dots(Z[:, 1:], Z[:, 1:])


def _discus(Z):
    return 1e6 * Z[:, 0] * Z[:, 0] + _row_dots(Z[:, 1:], Z[:, 1:])


def _schwefel_1_2(Z):
    partial = np.cumsum(Z, axis=1)
    return _row_dots(partial, partial)


def _schwefel_2_21(Z):
    return np.max(np.abs(Z), axis=1)


def _schwefel_2_22(Z):
    a = np.abs(Z)
    return np.sum(a, axis=1) + np.prod(a, axis=1)


def _rosenbrock(Z):
    x, y = Z[:, :-1], Z[:, 1:]
    return np.sum(100.0 * (x ** 2 - y) ** 2 + (x - 1.0) ** 2, axis=1)


def _rastrigin(Z):
    return np.sum(Z * Z - 10.0 * np.cos(2.0 * np.pi * Z) + 10.0, axis=1)


def _ackley(Z):
    d = Z.shape[1]
    s1 = np.sqrt(_row_dots(Z, Z) / d)
    s2 = np.sum(np.cos(2.0 * np.pi * Z), axis=1) / d
    # each bracket is exactly 0.0 at the optimum, where s1 = 0 and s2 = 1
    return (20.0 - 20.0 * np.exp(-0.2 * s1)) + (np.e - np.exp(s2))


def _griewank(Z):
    d = Z.shape[1]
    s = _row_dots(Z, Z) / 4000.0
    p = np.prod(np.cos(Z / np.sqrt(np.arange(1, d + 1))), axis=1)
    return 1.0 + s - p


def _bohachevsky(Z):
    x, y = Z[:, :-1], Z[:, 1:]
    return np.sum(x * x + 2.0 * y * y
                  - 0.3 * np.cos(3.0 * np.pi * x)
                  - 0.4 * np.cos(4.0 * np.pi * y) + 0.7, axis=1)


def _pairwise_f10(x, y):
    s = x * x + y * y
    return s ** 0.25 * (np.sin(50.0 * s ** 0.1) ** 2 + 1.0)


def _schaffer(Z):
    return np.sum(_pairwise_f10(Z[:, :-1], Z[:, 1:]), axis=1)


def _extended_f10(Z):
    # schaffer plus the wrap-around pair (z_d, z_1), taken on scalars: numpy
    # raises a scalar to a power with another routine than an array
    wrap = np.fromiter(map(_pairwise_f10, Z[:, -1], Z[:, 0]), dtype=float,
                       count=len(Z))
    return _schaffer(Z) + wrap


_W_A, _W_B, _W_KMAX = 0.5, 3.0, 20
_W_AK = _W_A ** np.arange(_W_KMAX + 1)
_W_BK = _W_B ** np.arange(_W_KMAX + 1)
_W_OFFSET = float(np.sum(_W_AK * np.cos(np.pi * _W_BK)))  # cos(2*pi*b^k*0.5)


def _weierstrass(Z):
    u = (Z + 0.5)[:, :, None] * _W_BK
    u -= np.floor(u)  # b^k (z + 0.5) mod 1: the cosine needs no argument reduction
    inner = np.cos(2.0 * np.pi * u) @ _W_AK
    return np.sum(inner, axis=1) - Z.shape[1] * _W_OFFSET


BASE_FUNCTIONS = {
    "sphere": _sphere,
    "elliptic": _elliptic,
    "bent_cigar": _bent_cigar,
    "discus": _discus,
    "schwefel_1_2": _schwefel_1_2,
    "schwefel_2_21": _schwefel_2_21,
    "schwefel_2_22": _schwefel_2_22,
    "rosenbrock": _rosenbrock,
    "rastrigin": _rastrigin,
    "ackley": _ackley,
    "griewank": _griewank,
    "bohachevsky": _bohachevsky,
    "schaffer": _schaffer,
    "extended_f10": _extended_f10,
    "weierstrass": _weierstrass,
}

# Sums over the pairs (z_i, z_i+1), which would be 0 everywhere at d = 1.
PAIR_FUNCTIONS = frozenset({"rosenbrock", "bohachevsky", "schaffer"})

# Half-widths of the symmetric search box that differ from the default 100.
SEARCH_RANGES = {
    "schwefel_1_2": 65.536,
    "schwefel_2_22": 10.0,
    "ackley": 32.0,
    "griewank": 600.0,
}


# ---------------------------------------------------------------------------
# partitions
# ---------------------------------------------------------------------------

def validate_partition(parts, d: int):
    """Check that the partition's index sets are disjoint and cover 0..d-1,
    and that each part of a pair function has at least 2 indices."""
    seen = np.zeros(d, dtype=bool)
    out = []
    for fid, idx in parts:
        if fid not in BASE_FUNCTIONS:
            raise UnknownFunction(f"unknown base function {fid!r} in partition")
        idx = np.asarray(idx, dtype=int)
        if idx.size == 0 or np.any(idx < 0) or np.any(idx >= d):
            raise InvalidPartition(f"indices of part {fid!r} outside 0..{d - 1}")
        if idx.size < 2 and fid in PAIR_FUNCTIONS:
            raise InvalidPartition(f"part {fid!r} needs at least 2 indices")
        if np.any(seen[idx]):
            raise InvalidPartition("partition index sets overlap")
        seen[idx] = True
        out.append((fid, idx))
    if not np.all(seen):
        raise InvalidPartition("partition does not cover every dimension")
    return tuple(out)


def _eval_parts(parts, Z: np.ndarray) -> np.ndarray:
    """Per row of Z, the sum over a validated partition of its parts' values."""
    return sum(BASE_FUNCTIONS[fid](Z.take(idx, axis=1)) for fid, idx in parts)


def parse_parts(spec: str):
    """Parse 'sphere:0-24,rastrigin:25-49' into (name, indices) parts;
    ObjectiveInstance validates them."""
    parts = []
    for chunk in spec.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        try:
            fid, rng = chunk.split(":")
            lo, hi = rng.split("-")
            idx = np.arange(int(lo), int(hi) + 1)
        except ValueError:
            raise ParseError(f"bad partition chunk {chunk!r}; expected name:lo-hi") from None
        parts.append((fid.strip(), idx))
    return parts


# ---------------------------------------------------------------------------
# objective instances
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class ObjectiveInstance:
    """An immutable, callable problem: base function + transforms + bounds.
    Instances compare and hash by identity, as their array fields cannot.

    A point x maps to z = M (x - o), with shift o and orthogonal rotation M
    each optional; a partition sums its parts' values on their index sets of
    z.  Every field is checked once, here when the instance is made, and
    ``batch`` checks only its block.  ``batch(X)`` evaluates the rows of an
    (n, d) block; ``self(x)`` is its one-row case, so every row of a block
    equals the value at that row alone, bit for bit.
    """

    base_id: str
    bounds: Bounds
    shift: np.ndarray | None = None
    rotation: np.ndarray | None = None
    partition: tuple[tuple[str, np.ndarray], ...] | None = None
    d: int = field(init=False)

    def __post_init__(self):
        d = self.bounds.d
        object.__setattr__(self, "d", d)
        if self.shift is not None:
            self._store_array("shift", (d,))
        if self.rotation is not None:
            m = self._store_array("rotation", (d, d))
            dev = float(np.max(np.abs(m @ m.T - np.eye(d))))
            if not dev < 1e-3:   # written so that a NaN deviation fails
                raise ValueError(f"rotation matrix is not orthogonal (deviation {dev:.2e})")
            if dev >= 1e-8:
                warnings.warn(f"rotation matrix only loosely orthogonal (deviation {dev:.2e})")
        if self.partition is not None:
            object.__setattr__(self, "partition", validate_partition(self.partition, d))
        elif self.base_id not in BASE_FUNCTIONS:
            raise UnknownFunction(f"unknown base function {self.base_id!r}")
        elif d < 2 and self.base_id in PAIR_FUNCTIONS:
            raise ValueError(f"function {self.base_id!r} needs dimension at least 2, "
                             f"got {d}")

    def _store_array(self, name: str, shape: tuple[int, ...]) -> np.ndarray:
        """Store field ``name`` as a float array of the given shape whose
        every entry is finite."""
        data = np.asarray(getattr(self, name), dtype=float)
        if data.shape != shape:
            raise DimensionMismatch(f"{name} has shape {data.shape}, expected {shape}")
        if not np.all(np.isfinite(data)):
            raise ValueError(f"{name} holds a non-finite value")
        object.__setattr__(self, name, data)
        return data

    def batch(self, X: np.ndarray) -> np.ndarray:
        """Values at the rows of an (n, d) block."""
        # row-contiguous, so each row is reduced like a point on its own
        Z = np.ascontiguousarray(X, dtype=float)
        if Z.ndim != 2 or Z.shape[1] != self.d:
            raise DimensionMismatch(f"block has shape {Z.shape}, expected (n, {self.d})")
        if self.shift is not None:
            Z = Z - self.shift
        if self.rotation is not None:
            # one matrix-vector product per row, so a row's image does not
            # depend on its block; Z @ M.T would differ in the last bits
            Z = (self.rotation @ Z[..., None])[..., 0]
        if self.partition is not None:
            return _eval_parts(self.partition, Z)
        return BASE_FUNCTIONS[self.base_id](Z)

    def __call__(self, x: np.ndarray) -> float:
        return float(self.batch(np.asarray(x, dtype=float)[None])[0])


def random_shift(bounds: Bounds, rng: np.random.Generator) -> np.ndarray:
    """Shift sampled uniformly in the central 80% of the box."""
    w = bounds.width()
    return bounds.lower + 0.1 * w + rng.uniform(size=bounds.d) * 0.8 * w


def random_rotation(d: int, rng: np.random.Generator) -> np.ndarray:
    """Orthonormal matrix from the QR decomposition of a Gaussian matrix."""
    q, r = np.linalg.qr(rng.standard_normal((d, d)))
    return q * np.sign(np.diag(r))  # fix signs so the map is deterministic


def make_instance(function_id: str, d: int, instance_seed: int = 0,
                  shift_file: str | None = None, rotation_file: str | None = None,
                  parts: str | None = None) -> ObjectiveInstance:
    """Build an ObjectiveInstance from a function id.

    Ids take exactly the form ``[shifted_][rotated_](<base>|hybrid)``, in any
    case; ``hybrid`` requires ``parts``.  Generated shift/rotation data is reproducible from
    instance_seed; explicit data files override generation.  Every input
    error raises a ValueError (UnknownFunction, InvalidPartition, ...).
    """
    if d < 1:
        raise ValueError(f"dimension must be at least 1, got {d}")
    fid = function_id.strip().lower()
    shifted = fid.startswith("shifted_")
    fid = fid.removeprefix("shifted_")
    rotated = fid.startswith("rotated_")
    fid = fid.removeprefix("rotated_")

    partition = None
    box_fid = fid
    if fid == "hybrid":
        if not parts:
            raise InvalidPartition("function 'hybrid' needs a partition spec")
        partition = parse_parts(parts)
        if partition:   # an empty partition is refused by the instance
            box_fid = partition[0][0]
    elif fid not in BASE_FUNCTIONS:
        raise UnknownFunction(f"unknown function id {function_id!r}")
    bounds = Bounds.symmetric(SEARCH_RANGES.get(box_fid, 100.0), d)

    rng = rng_stream(instance_seed, 0xB0B)
    shift = rotation = None
    if shift_file is not None:
        shift = load_shift_file(shift_file, d)
    elif shifted:
        shift = random_shift(bounds, rng)
    if rotation_file is not None:
        rotation = load_rotation_file(rotation_file, d)
    elif rotated:
        rotation = random_rotation(d, rng)

    return ObjectiveInstance(fid, bounds, shift=shift, rotation=rotation,
                             partition=partition)


# ---------------------------------------------------------------------------
# data files (whitespace-separated decimal text)
# ---------------------------------------------------------------------------

def load_shift_file(path, d: int) -> np.ndarray:
    try:
        data = np.loadtxt(path, dtype=float).ravel()
    except (OSError, ValueError) as exc:
        raise ParseError(f"cannot parse shift file {path}: {exc}") from None
    if data.size != d:
        raise DimensionMismatch(f"shift file has {data.size} values, expected {d}")
    return data


def load_rotation_file(path, d: int) -> np.ndarray:
    try:
        data = np.loadtxt(path, dtype=float)
    except (OSError, ValueError) as exc:
        raise ParseError(f"cannot parse rotation file {path}: {exc}") from None
    data = np.atleast_2d(data)
    if data.shape != (d, d):
        raise DimensionMismatch(f"rotation file is {data.shape}, expected ({d}, {d})")
    return data  # the instance judges its values and orthogonality
