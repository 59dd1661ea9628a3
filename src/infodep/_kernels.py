"""Hot inner loops, vectorized with NumPy.

Three kernels dominate runtime: the group-constancy scan behind every
field-containment test, the closed-loop fixed-point count behind ``solve``,
and the exhaustive profile scan behind solvability proofs.  Their timings
on fixed inputs are the ``probe.*_ms`` rows of ``python3 perfbench/run.py``.
"""

from __future__ import annotations

import numpy as np


def active_backend() -> str:
    """Name of the kernel backend; the benchmark's provenance line records it."""
    return "numpy"


# ---------------------------------------------------------------------------
# group constancy: are `values` constant within every fiber of `codes`?
#
# codes[i] in [0, n_codes); returns (ok, i, j) where (i, j) index a violating
# pair (same code, different value) when ok is False: i is the first row of
# that code, j the first row anywhere that disagrees with its code's first row.
# ---------------------------------------------------------------------------

def group_constant(codes, values, n_codes):
    uniq, first, inverse = np.unique(codes, return_index=True, return_inverse=True)
    ref = values[first][inverse]
    bad = np.flatnonzero(ref != values)
    if bad.size == 0:
        return True, -1, -1
    j = int(bad[0])
    return False, int(first[inverse[j]]), j


# ---------------------------------------------------------------------------
# closed-loop fixed points: config index = omega + n_omega * u.
#
# tables[a] holds agent a's policy table under a batch of profiles, shape
# batch + (atom_count_a,); the batch shape is () for one profile.  atoms[a, i]
# is the information-field atom of config i for agent a, uvals[a, i] its own
# decision coordinate.  A config is a fixed point of a profile when every
# agent's table maps its atom to its own decision.
# ---------------------------------------------------------------------------

def _fixed_points(tables, atoms, uvals):
    """ok[..., i]: config i is a fixed point, shape batch + (n_configs,)."""
    ok = np.ones(tables[0].shape[:-1] + atoms.shape[1:], dtype=bool)
    for a, table in enumerate(tables):
        ok &= table.take(atoms[a], axis=-1) == uvals[a]
    return ok


def solve_counts(tables, offsets, atoms, uvals, n_omega):
    """Per-omega solution counts and, where the count is exactly one, the
    solving config index (else -1).  Agent a's table is tables[offsets[a]:]
    up to the next agent's offset."""
    starts = offsets.tolist()
    one = [tables[o:e] for o, e in zip(starts, starts[1:] + [len(tables)])]
    idx = np.flatnonzero(_fixed_points(one, atoms, uvals))
    om = idx % n_omega
    counts = np.bincount(om, minlength=n_omega)
    sol = np.full(n_omega, -1, dtype=np.int64)
    sol[om] = idx
    sol[counts != 1] = -1
    return counts.astype(np.int64), sol


# ---------------------------------------------------------------------------
# exhaustive solvability scan over every policy profile.
#
# all_tables concatenates, agent by agent, every candidate policy table for
# that agent (n_pols[a] tables of length atom_counts[a], at base
# pol_offsets[a]).  Profiles are visited in mixed-radix order, agent 0 the
# fastest digit.
#
# The scan runs in chunks of consecutive profiles.  A chunk decodes its
# profile indices into per-agent policy numbers, gathers each agent's table
# entries for every config as one (chunk, n_configs) array, and counts the
# fixed points per omega as ok.reshape(chunk, n_u, n_omega).sum(1).  The
# first chunk holds one profile and each next chunk twice as many, so an
# early unsolvable profile costs about one fixed-point pass.  Chunks stop
# growing at scan_chunk_cap(n_configs): the largest temporary, the int64
# gather of shape (chunk, n_configs), stays within SCAN_BYTES.  A bigger
# budget buys little speed on small configuration spaces and shows as
# resident memory.
# ---------------------------------------------------------------------------

SCAN_BYTES = 512 * 1024
SCAN_ITEM_BYTES = 8  # int64: gathered table entries, per-omega counts


def scan_chunk_cap(n_configs: int) -> int:
    """Most profiles per scan chunk; 1 when one profile alone exceeds SCAN_BYTES."""
    return max(1, SCAN_BYTES // (SCAN_ITEM_BYTES * n_configs))


def scan_profiles(all_tables, pol_offsets, n_pols, atom_counts,
                  atoms, uvals, n_omega, n_profiles):
    """First profile index whose closed loop is not uniquely solvable for
    some omega, or -1 when all profiles pass."""
    per_agent = [all_tables[o:o + n * k].reshape(n, k)
                 for o, n, k in zip(pol_offsets, n_pols, atom_counts)]
    cap = scan_chunk_cap(atoms.shape[1])
    start, chunk = 0, 1
    while start < n_profiles:
        chunk = min(chunk, cap, n_profiles - start)
        rest = np.arange(start, start + chunk, dtype=np.int64)
        tables = []
        for table, n in zip(per_agent, n_pols):
            tables.append(table[rest % n])
            rest //= n
        counts = _fixed_points(tables, atoms, uvals).reshape(chunk, -1, n_omega).sum(1)
        bad = np.flatnonzero((counts != 1).any(1))
        if bad.size:
            return start + int(bad[0])
        start += chunk
        chunk *= 2
    return -1
