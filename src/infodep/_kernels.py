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
# tables: per-agent policy tables concatenated; bases[a] locates agent a's
# table.  atoms[a, i] is the information-field atom of config i for agent a,
# uvals[a, i] its own decision coordinate.  A config is a fixed point when
# every agent's table maps its atom to its own decision.
# ---------------------------------------------------------------------------

def _fixed_points(tables, bases, atoms, uvals):
    ok = np.ones(atoms.shape[1], dtype=bool)
    for a in range(atoms.shape[0]):
        ok &= tables[bases[a] + atoms[a]] == uvals[a]
    return ok


def solve_counts(tables, offsets, atoms, uvals, n_omega):
    """Per-omega solution counts and, where the count is exactly one, the
    solving config index (else -1)."""
    idx = np.flatnonzero(_fixed_points(tables, offsets, atoms, uvals))
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
# ---------------------------------------------------------------------------

def scan_profiles(all_tables, pol_offsets, n_pols, atom_counts,
                  atoms, uvals, n_omega, n_profiles):
    """First profile index whose closed loop is not uniquely solvable for
    some omega, or -1 when all profiles pass."""
    for p in range(n_profiles):
        rest, bases = p, []
        for a in range(atoms.shape[0]):
            k = rest % n_pols[a]
            rest //= n_pols[a]
            bases.append(pol_offsets[a] + k * atom_counts[a])
        ok = _fixed_points(all_tables, bases, atoms, uvals)
        if np.any(np.bincount(np.flatnonzero(ok) % n_omega, minlength=n_omega) != 1):
            return p
    return -1
