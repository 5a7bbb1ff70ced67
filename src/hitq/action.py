"""Symmetric-group and GL(q) actions on the quotients, and their invariants.

Generators act by linear substitution on representatives and reduce back to
basis coordinates; invariants are the simultaneous kernel of the matrices
M_g + I (fixed points of the generators are fixed points of the group).  The
invariants of the Kameko kernel, Ker^G = Ker ∩ Q^G, are the kernel of the
Kameko map's rows restricted to the span of the invariants.
"""

from __future__ import annotations

from functools import reduce
from operator import xor

from . import hit, linalg, poly


def sigma_generators(q: int) -> list:
    """Transpositions x_j <-> x_{j+1} for 1 <= j < q, as GF(2) matrices."""
    out = []
    for j in range(q - 1):
        g = [[1 if r == c else 0 for c in range(q)] for r in range(q)]
        g[j][j] = g[j + 1][j + 1] = 0
        g[j][j + 1] = g[j + 1][j] = 1
        out.append(g)
    return out


def gl_generators(q: int) -> list:
    """The transpositions plus the transvection x_1 -> x_1 + x_2; none for
    q = 1, where GL_1(F_2) is trivial."""
    out = sigma_generators(q)
    if q >= 2:
        g = [[1 if r == c else 0 for c in range(q)] for r in range(q)]
        g[0][1] = 1
        out.append(g)
    return out


def group_generators(q: int, kind: str) -> list:
    if kind == "sigma":
        return sigma_generators(q)
    if kind == "gl":
        return gl_generators(q)
    raise ValueError(f"unknown group kind {kind!r}")


def action_matrix(g, space) -> list:
    """Columns (as bit vectors) of the induced action of g on the space."""
    cols = []
    for m in space.admissible:
        cols.append(space.reduce_vec(poly.linear_substitute(g, frozenset({m}))))
    return cols


def _fixed_point_rows(cols: list, dim: int) -> list:
    """Nonzero rows of M + I from the columns of M."""
    rows = linalg.transpose((col ^ 1 << c for c, col in enumerate(cols)), dim)
    return [linalg.from_support(r) for r in rows if r]


def invariant_subspace(space, gens) -> list:
    """Basis vectors (space coordinates) of the common fixed points of gens."""
    dim = space.dim
    rows = [r for g in gens for r in _fixed_point_rows(action_matrix(g, space), dim)]
    return linalg.kernel_basis(rows, dim)


def kernel_invariants(space, invariants) -> list:
    """Invariants of the Kameko kernel inside space = Q^q_n, given a basis of
    the invariants Q^G (space coordinates): Ker^G = Ker ∩ Q^G.  Kameko row r
    restricts to bit k = parity(r & invariants[k]); each kernel vector over
    the invariants is mapped back to space coordinates."""
    invariants = list(invariants)
    rows = [linalg.from_support(k for k, u in enumerate(invariants)
                                if (r & u).bit_count() & 1)
            for r in hit._kameko_rows(space)]
    return [reduce(xor, (invariants[k] for k in linalg.support(c)), 0)
            for c in linalg.kernel_basis(rows, len(invariants))]


__all__ = [
    "sigma_generators",
    "gl_generators",
    "group_generators",
    "action_matrix",
    "invariant_subspace",
    "kernel_invariants",
]
