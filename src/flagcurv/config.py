"""JSON problem configurations for the command-line front-end.

A config document describes one setup: algebra (structure constants,
1-based indices, only i < j entries required), reductive split, optional
g0 / phi / X (defaulting to identity / identity / zero), a list of raw
flags, and run options.  The basis must be adapted: the first h_dim
vectors span the isotropy algebra.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, asdict
from pathlib import Path

import numpy as np

from .algebra import LieAlgebraSpec, ReductivePair
from .errors import InputError
from .finsler import FinslerData
from .flagcurvature import CONVENTIONS, METHODS
from .geometry import HomogeneousGeometry, make_geometry


@dataclass(frozen=True)
class RunOptions:
    sign_convention: str = "oracle-aligned"
    method: str = "general"
    fd_step: float = 1e-5
    seed: int = 0
    samples: int = 1000
    tolerances: dict = field(default_factory=dict)


@dataclass(frozen=True)
class ProblemConfig:
    name: str
    dim: int
    h_dim: int
    structure_constants: tuple[tuple[int, int, int, float], ...]
    g0: tuple | None
    phi: tuple | None
    X: tuple | None
    flags: tuple[tuple[tuple[float, ...], tuple[float, ...]], ...]
    options: RunOptions

    @property
    def m_dim(self) -> int:
        return self.dim - self.h_dim

    def to_dict(self) -> dict:
        out = {
            "name": self.name,
            "dim": self.dim,
            "h_dim": self.h_dim,
            "structure_constants": [list(e) for e in self.structure_constants],
            "flags": [[list(y), list(u)] for y, u in self.flags],
            "options": asdict(self.options),
        }
        if self.g0 is not None:
            out["g0"] = [list(r) for r in self.g0]
        if self.phi is not None:
            out["phi"] = [list(r) for r in self.phi]
        if self.X is not None:
            out["X"] = list(self.X)
        return out


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise InputError(msg)


def _as_matrix(raw, rows: int, cols: int, name: str) -> tuple:
    _require(isinstance(raw, list) and len(raw) == rows,
             f"{name} must be a {rows}x{cols} matrix")
    out = []
    for i, row in enumerate(raw):
        _require(isinstance(row, list) and len(row) == cols,
                 f"{name} row {i + 1} must have {cols} entries")
        _require(all(isinstance(x, (int, float)) for x in row),
                 f"{name} row {i + 1} has a non-numeric entry")
        out.append(tuple(float(x) for x in row))
    return tuple(out)


def config_from_dict(doc: dict) -> ProblemConfig:
    _require(isinstance(doc, dict), "config document must be a JSON object")
    known = {"name", "dim", "h_dim", "structure_constants", "g0", "phi", "X",
             "flags", "options"}
    for key in doc:
        _require(key in known, f"unknown config field {key!r}")

    name = doc.get("name", "unnamed")
    _require(isinstance(name, str), "name must be a string")
    dim = doc.get("dim")
    _require(isinstance(dim, int) and dim >= 1, "dim must be a positive integer")
    h_dim = doc.get("h_dim", 0)
    _require(isinstance(h_dim, int) and 0 <= h_dim <= dim,
             f"h_dim must be an integer in [0, {dim}]")
    m_dim = dim - h_dim

    raw_sc = doc.get("structure_constants", [])
    _require(isinstance(raw_sc, list), "structure_constants must be a list")
    seen: dict[tuple[int, int, int], float] = {}
    entries = []
    for pos, entry in enumerate(raw_sc):
        _require(
            isinstance(entry, list) and len(entry) == 4,
            f"structure_constants entry {pos + 1} must be [i, j, k, value]",
        )
        i, j, k, v = entry
        _require(all(isinstance(x, int) for x in (i, j, k)),
                 f"structure_constants entry {pos + 1}: indices must be integers")
        _require(isinstance(v, (int, float)),
                 f"structure_constants entry {pos + 1}: value must be numeric")
        for idx in (i, j, k):
            _require(1 <= idx <= dim,
                     f"structure_constants entry {pos + 1}: index {idx} "
                     f"out of range [1, {dim}]")
        _require(i != j or v == 0,
                 f"structure_constants entry {pos + 1}: [e_{i}, e_{i}] must vanish")
        key = (i, j, k)
        _require(key not in seen,
                 f"structure_constants entry {pos + 1}: duplicate index triple {key}")
        mirror = (j, i, k)
        if mirror in seen:
            _require(seen[mirror] == -float(v),
                     f"structure_constants entry {pos + 1}: conflicts with the "
                     f"entry for {mirror} (antisymmetry)")
        seen[key] = float(v)
        entries.append((i, j, k, float(v)))

    g0 = _as_matrix(doc["g0"], dim, dim, "g0") if "g0" in doc else None
    phi = _as_matrix(doc["phi"], m_dim, m_dim, "phi") if "phi" in doc else None

    X = None
    if "X" in doc:
        raw_x = doc["X"]
        _require(isinstance(raw_x, list) and len(raw_x) == m_dim,
                 f"X must be a vector of length m_dim = {m_dim}")
        _require(all(isinstance(x, (int, float)) for x in raw_x),
                 "X has a non-numeric entry")
        X = tuple(float(x) for x in raw_x)

    raw_flags = doc.get("flags", [])
    _require(isinstance(raw_flags, list), "flags must be a list")
    flags = []
    for pos, pair in enumerate(raw_flags):
        _require(isinstance(pair, list) and len(pair) == 2,
                 f"flag {pos + 1} must be a pair [Y, U]")
        vecs = []
        for which, raw_v in zip(("Y", "U"), pair):
            _require(isinstance(raw_v, list) and len(raw_v) == m_dim,
                     f"flag {pos + 1} {which} must have length m_dim = {m_dim}")
            _require(all(isinstance(x, (int, float)) for x in raw_v),
                     f"flag {pos + 1} {which} has a non-numeric entry")
            vecs.append(tuple(float(x) for x in raw_v))
        flags.append((vecs[0], vecs[1]))

    raw_opts = doc.get("options", {})
    _require(isinstance(raw_opts, dict), "options must be an object")
    opt_known = {"sign_convention", "method", "fd_step", "seed", "samples",
                 "tolerances"}
    for key in raw_opts:
        _require(key in opt_known, f"unknown option {key!r}")
    convention = raw_opts.get("sign_convention", "oracle-aligned")
    _require(convention in CONVENTIONS,
             f"sign_convention must be one of {CONVENTIONS}")
    method = raw_opts.get("method", "general")
    _require(method in METHODS, f"method must be one of {METHODS}")
    fd_step = raw_opts.get("fd_step", 1e-5)
    _require(isinstance(fd_step, (int, float)) and fd_step > 0,
             "fd_step must be a positive number")
    seed = raw_opts.get("seed", 0)
    _require(isinstance(seed, int) and seed >= 0, "seed must be a non-negative integer")
    samples = raw_opts.get("samples", 1000)
    _require(isinstance(samples, int) and samples >= 1,
             "samples must be a positive integer")
    tolerances = raw_opts.get("tolerances", {})
    _require(isinstance(tolerances, dict), "tolerances must be an object")

    return ProblemConfig(
        name=name,
        dim=dim,
        h_dim=h_dim,
        structure_constants=tuple(entries),
        g0=g0,
        phi=phi,
        X=X,
        flags=tuple(flags),
        options=RunOptions(
            sign_convention=convention,
            method=method,
            fd_step=float(fd_step),
            seed=seed,
            samples=samples,
            tolerances=dict(tolerances),
        ),
    )


def parse_config(path: str | Path) -> ProblemConfig:
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise InputError(f"cannot read config file {path}: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(
            f"config file {path} is not valid JSON "
            f"(line {exc.lineno}, column {exc.colno}): {exc.msg}"
        ) from exc
    return config_from_dict(doc)


def structure_tensor(config: ProblemConfig) -> np.ndarray:
    """Dense antisymmetric tensor from the 1-based sparse entries."""
    c = np.zeros((config.dim, config.dim, config.dim))
    done: set[tuple[int, int, int]] = set()
    for i, j, k, v in config.structure_constants:
        canon = (i, j, k) if i < j else (j, i, k)
        if canon in done:  # the mirrored entry was already applied
            continue
        done.add(canon)
        c[i - 1, j - 1, k - 1] = v
        c[j - 1, i - 1, k - 1] = -v
    return c


def build_problem(
    config: ProblemConfig,
) -> tuple[HomogeneousGeometry, FinslerData, list[tuple[np.ndarray, np.ndarray]]]:
    """Instantiate the geometry, drift data, and raw flag vectors."""
    algebra = LieAlgebraSpec(dim=config.dim, c=structure_tensor(config))
    geom = make_geometry(
        algebra,
        h_dim=config.h_dim,
        g0=np.array(config.g0) if config.g0 is not None else None,
        phi=np.array(config.phi) if config.phi is not None else None,
    )
    X = np.array(config.X) if config.X is not None else np.zeros(config.m_dim)
    data = FinslerData(g=geom.inner, X=X)
    flags = [(np.array(y), np.array(u)) for y, u in config.flags]
    return geom, data, flags
