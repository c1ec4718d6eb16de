"""Deterministic seed derivation and per-site counter RNG.

All randomness in the package flows from a single master seed through
`derive_seed` (stream splitting) and `site_uniforms` (stateless per-site
uniforms keyed by lattice coordinates).  Both are pure integer/hash
functions, so results are identical across platforms and do not depend
on the order in which replicas are computed.
"""

import hashlib

import numpy as np
from numpy.random import PCG64, Generator

_U64 = np.uint64
_MASK64 = (1 << 64) - 1
_GOLDEN = _U64(0x9E3779B97F4A7C15)
_MIX1 = _U64(0xBF58476D1CE4E5B9)
_MIX2 = _U64(0x94D049BB133111EB)


def derive_seed(master, label, index=0):
    """Derive a 64-bit child seed from (master seed, stream label, index).

    Collision resistance comes from BLAKE2b; the mapping is stable across
    platforms and independent of numpy.
    """
    h = hashlib.blake2b(digest_size=8)
    h.update(str(int(master)).encode())
    h.update(b"\x1f")
    h.update(str(label).encode())
    h.update(b"\x1f")
    h.update(str(int(index)).encode())
    return int.from_bytes(h.digest(), "little")


def generator(seed):
    """Sequential RNG stream for a derived seed."""
    return Generator(PCG64(int(seed) & _MASK64))


def _mix(z):
    z = (z ^ (z >> _U64(30))) * _MIX1
    z = (z ^ (z >> _U64(27))) * _MIX2
    return z ^ (z >> _U64(31))


def _lattice_sites(name, coords, dim):
    """coords as (n, dim) int64, one site per row.

    Refuses by value a row not of dim entries, a non-integer, and an
    integer outside the int64 range.
    """
    a = np.atleast_2d(coords)
    if a.shape[1] != dim:
        raise ValueError(f"{name} must have {dim} coordinates, got {a.shape[1]}")
    for c in a.ravel().tolist() if a.dtype.kind not in "ib" else ():  # a signed integer array casts exactly
        try:
            ok = np.int64(c) == c
        except (TypeError, ValueError, OverflowError):
            ok = False
        if not ok:
            whole = isinstance(c, int) or isinstance(c, float) and c.is_integer()
            fault = "coordinates in the int64 range [-2**63, 2**63 - 1]" if whole else "integer coordinates"
            raise ValueError(f"{name} must have {fault}, got {c!r}")
    return a.astype(np.int64, copy=False)


def site_uniforms(seed, coords):
    """Uniform(0,1) variate per lattice site, keyed by (seed, coordinates).

    coords: integer array of shape (n, d), or (d,) for one site.  The
    value at a site does not depend on the enclosing window, so windows
    of different radii drawn from the same seed agree on their overlap.
    Based on the splitmix64 finalizer applied as a stateless counter hash.

    seed is one integer, giving shape (n,), or a 1-d sequence of m
    integers, giving shape (m, n) whose row i is what seed[i] alone
    gives: the hash is elementwise, so all rows are mixed in one pass.
    """
    coords = _lattice_sites("coords", coords, np.shape(coords)[-1])
    n, d = coords.shape
    cu = coords.view(_U64) if coords.flags.c_contiguous else coords.copy().view(_U64)
    if np.ndim(seed) == 0:
        seeds = np.array(int(seed) & _MASK64, dtype=_U64)
    else:
        seeds = np.array([int(s) & _MASK64 for s in seed], dtype=_U64)
    with np.errstate(over="ignore"):
        h = np.broadcast_to(_mix(seeds)[..., None], seeds.shape + (n,))
        for k in range(d):
            h = _mix((h + _GOLDEN) ^ cu[:, k])
        h = _mix(h + _GOLDEN)
    # 53 significant bits, shifted into the open interval (0, 1)
    return ((h >> _U64(11)).astype(np.float64) + 0.5) / float(1 << 53)
