"""Symmetric-group and GL(q) actions on the quotients, and their invariants.

Generators act by linear substitution on representatives and reduce back to
basis coordinates.  Every invariant subspace is a kernel taken inside the one
before: the fixed points of the group are those of its generators, so they
are the kernel of M_g + I inside the fixed points of the generators before
g, and the invariants of the Kameko kernel, Ker^G = Ker ∩ Q^G, are the
kernel of the Kameko map inside Q^G.
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


def _kernel_within(images: list, basis: list) -> list:
    """The rref kernel of the map with columns images restricted to the span
    of basis, mapped back: the canonical basis of the kernel inside that span
    when basis is itself canonical (one free coordinate per vector)."""
    restricted = [reduce(xor, map(images.__getitem__, linalg.support(u)), 0)
                  for u in basis]
    return [reduce(xor, map(basis.__getitem__, linalg.support(c)), 0)
            for c in linalg.kernel_basis(restricted)]


def invariant_subspace(space, gens) -> list:
    """Basis vectors (space coordinates) of the common fixed points of gens."""
    basis = [1 << c for c in range(space.dim)]
    for g in gens:
        images = [col ^ 1 << c for c, col in enumerate(action_matrix(g, space))]
        basis = _kernel_within(images, basis)
    return basis


def kernel_invariants(space, invariants) -> list:
    """Invariants of the Kameko kernel inside space = Q^q_n, given a basis of
    the invariants Q^G (space coordinates): Ker^G = Ker ∩ Q^G, the Kameko
    map's kernel inside their span."""
    return _kernel_within(hit._kameko_images(space), list(invariants))


__all__ = [
    "sigma_generators",
    "gl_generators",
    "group_generators",
    "action_matrix",
    "invariant_subspace",
    "kernel_invariants",
]
