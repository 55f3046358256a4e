"""Seeded problem generator: Lie algebras, metrics, drifts and flags built in code.

Every problem uses the identity as g0, so a g0-self-adjoint phi is a
symmetric positive-definite matrix on m.  phi is block-diagonal wherever the
algebra has a centre, so the centre stays orthogonal to [g, g] and a drift X
along it stays Berwald-admissible.  Drifts have |X|_g <= 0.6.

The seed only changes numbers (phi, X, flags, scan seeds); the list of
algebras and the number of flags of each problem are fixed by the workload,
so op costs do not depend on the seed.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

X_NORM_RANGE = (0.2, 0.6)
PHI_EIG_RANGE = (0.5, 2.0)


@dataclass(frozen=True)
class Problem:
    name: str
    family: str  # "group", "so", "sphere" or "heisenberg"
    h_dim: int
    c: np.ndarray  # structure tensor, [e_i, e_j] = c[i, j, k] e_k
    phi: np.ndarray  # metric endomorphism on m (g0 = identity)
    X: np.ndarray  # drift, m-coordinates
    flags: tuple[tuple[np.ndarray, np.ndarray], ...]  # raw (y, u), m-coordinates

    @property
    def dim(self) -> int:
        return self.c.shape[0]

    @property
    def m_dim(self) -> int:
        return self.dim - self.h_dim

    def to_config(self, seed: int = 0, samples: int = 1000) -> dict:
        """The problem as a flagcurv JSON config (1-based, i < j entries)."""
        n = self.dim
        entries = [
            [i + 1, j + 1, k + 1, float(self.c[i, j, k])]
            for i in range(n) for j in range(i + 1, n) for k in range(n)
            if self.c[i, j, k] != 0.0
        ]
        return {
            "name": self.name,
            "dim": n,
            "h_dim": self.h_dim,
            "structure_constants": entries,
            "phi": self.phi.tolist(),
            "X": self.X.tolist(),
            "flags": [[y.tolist(), u.tolist()] for y, u in self.flags],
            "options": {"seed": seed, "samples": samples},
        }


# --------------------------------------------------------------- algebras

def su2_tensor() -> np.ndarray:
    c = np.zeros((3, 3, 3))
    for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        c[i, j, k] = 1.0
        c[j, i, k] = -1.0
    return c


def direct_sum(*tensors: np.ndarray) -> np.ndarray:
    n = sum(t.shape[0] for t in tensors)
    out = np.zeros((n, n, n))
    o = 0
    for t in tensors:
        d = t.shape[0]
        out[o:o + d, o:o + d, o:o + d] = t
        o += d
    return out


def so_tensor(n: int, order: list[tuple[int, int]] | None = None) -> np.ndarray:
    """so(n) in the basis E_ab = e_a e_b^T - e_b e_a^T (a < b), in the given order.

    The basis is orthonormal for <A, B> = tr(A^T B) / 2, which is ad-invariant,
    so g0 = identity is bi-invariant.
    """
    order = order or [(a, b) for a in range(n) for b in range(a + 1, n)]
    E = np.zeros((len(order), n, n))
    for idx, (a, b) in enumerate(order):
        E[idx, a, b], E[idx, b, a] = 1.0, -1.0
    comm = np.einsum("iab,jbc->ijac", E, E) - np.einsum("jab,ibc->ijac", E, E)
    c = 0.5 * np.einsum("ijac,kac->ijk", comm, E)
    return np.round(c)  # entries are exactly 0 or +-1


def sphere_tensor(n: int) -> tuple[np.ndarray, int]:
    """so(n+1) + R adapted to S^n x R = (SO(n+1) x R)/SO(n): h = so(n) first."""
    h = [(a, b) for a in range(n) for b in range(a + 1, n)]
    p = [(a, n) for a in range(n)]
    return direct_sum(so_tensor(n + 1, h + p), np.zeros((1, 1, 1))), len(h)


def heisenberg_tensor(k: int) -> np.ndarray:
    """h_{2k+1}: [x_i, y_i] = z with basis (x_1..x_k, y_1..y_k, z)."""
    n = 2 * k + 1
    c = np.zeros((n, n, n))
    for i in range(k):
        c[i, k + i, n - 1] = 1.0
        c[k + i, i, n - 1] = -1.0
    return c


# ----------------------------------------------------------------- metrics

def random_spd(rng: np.random.Generator, n: int) -> np.ndarray:
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    s = q @ np.diag(rng.uniform(*PHI_EIG_RANGE, n)) @ q.T
    return 0.5 * (s + s.T)


def block_diag(*blocks: np.ndarray) -> np.ndarray:
    n = sum(b.shape[0] for b in blocks)
    out = np.zeros((n, n))
    o = 0
    for b in blocks:
        d = b.shape[0]
        out[o:o + d, o:o + d] = b
        o += d
    return out


def _drift_along_last(rng: np.random.Generator, phi: np.ndarray) -> np.ndarray:
    X = np.zeros(phi.shape[0])
    X[-1] = rng.uniform(*X_NORM_RANGE) / np.sqrt(phi[-1, -1])
    return X


def _flags(rng, m_dim: int, count: int):
    return tuple(
        (rng.standard_normal(m_dim), rng.standard_normal(m_dim)) for _ in range(count)
    )


def group_problem(rng, k: int, n_flags: int) -> Problem:
    """su(2)^k + R, random phi on su(2)^k, central drift along R."""
    c = direct_sum(*[su2_tensor()] * k, np.zeros((1, 1, 1)))
    phi = block_diag(random_spd(rng, 3 * k), np.array([[rng.uniform(*PHI_EIG_RANGE)]]))
    return Problem(f"su2^{k}+R", "group", 0, c, phi, _drift_along_last(rng, phi),
                   _flags(rng, c.shape[0], n_flags))


def so_problem(rng, n: int, n_flags: int) -> Problem:
    """so(n), random phi, X = 0 (perfect algebra: no admissible drift)."""
    c = so_tensor(n)
    d = c.shape[0]
    return Problem(f"so({n})", "so", 0, c, random_spd(rng, d), np.zeros(d),
                   _flags(rng, d, n_flags))


def sphere_problem(rng, n: int, n_flags: int) -> Problem:
    """S^n x R; isotropy-irreducible, so phi = a I_n + b on the R factor."""
    c, h_dim = sphere_tensor(n)
    phi = np.diag([rng.uniform(*PHI_EIG_RANGE)] * n + [rng.uniform(*PHI_EIG_RANGE)])
    return Problem(f"S^{n}xR", "sphere", h_dim, c, phi, _drift_along_last(rng, phi),
                   _flags(rng, n + 1, n_flags))


def heisenberg_problem(rng, k: int, n_flags: int) -> Problem:
    """h_{2k+1}: no bi-invariant g0 and no parallel drift, so outside the
    hypotheses of the paper's closed forms (ROADMAP item 3a)."""
    c = heisenberg_tensor(k)
    n = c.shape[0]
    phi = block_diag(random_spd(rng, n - 1), np.array([[rng.uniform(*PHI_EIG_RANGE)]]))
    X = rng.standard_normal(n)
    X *= rng.uniform(*X_NORM_RANGE) / np.sqrt(X @ phi @ X)
    return Problem(f"h{n}", "heisenberg", 0, c, phi, X, _flags(rng, n, n_flags))


# --------------------------------------------------------------- workloads

BUILDERS = {
    "group": group_problem,
    "so": so_problem,
    "sphere": sphere_problem,
    "heisenberg": heisenberg_problem,
}

# (family, size parameter) per problem, in op order.
SCAN_GROUP = [("group", 1), ("group", 4), ("so", 8)]  # dims 4, 13, 28
SCAN_REDUCTIVE = [("sphere", 2), ("sphere", 4), ("sphere", 7)]  # dims 4, 11, 29
# 15 problems, every fifth a Heisenberg algebra: 3/15 are out of hypothesis.
AUDIT = [
    ("group", 1), ("so", 4), ("sphere", 2), ("group", 2), ("heisenberg", 1),
    ("so", 5), ("group", 3), ("sphere", 4), ("so", 6), ("heisenberg", 2),
    ("group", 4), ("so", 7), ("sphere", 7), ("so", 8), ("heisenberg", 3),
]
LADDERS = {"scan-group": SCAN_GROUP, "scan-reductive": SCAN_REDUCTIVE, "audit": AUDIT}


def sub_seed(seed: int, *labels) -> int:
    """A stable 63-bit seed derived from the workload seed and labels."""
    text = ":".join(str(x) for x in (seed, *labels))
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:8], "big") >> 1


def generate(workload: str, seed: int) -> list[Problem]:
    """The problems of one workload; identical for identical (workload, seed)."""
    problems = []
    for index, (family, size) in enumerate(LADDERS[workload]):
        rng = np.random.default_rng(sub_seed(seed, workload, index))
        n_flags = 2 + index % 3 if workload == "audit" else 0
        problems.append(BUILDERS[family](rng, size, n_flags))
    return problems
