"""JSON problem configurations for the command-line front-end.

A config document describes one setup: algebra (structure constants,
1-based indices, only i < j entries required), reductive split, optional
g0 / phi / X (defaulting to identity / identity / zero), a list of raw
flags, and run options.  The basis must be adapted: the first h_dim
vectors span the isotropy algebra.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .algebra import LieAlgebraSpec
from .errors import InputError
from .finsler import FinslerData
from .flagcurvature import CONVENTIONS, METHODS
from .geometry import HomogeneousGeometry, make_geometry


@dataclass(frozen=True)
class RunOptions:
    sign_convention: str = "oracle-aligned"
    method: str = "general"
    seed: int = 0
    samples: int = 1000

    def __post_init__(self):
        _require(self.sign_convention in CONVENTIONS,
                 "sign_convention must be one of {}", CONVENTIONS)
        _require(self.method in METHODS, "method must be one of {}", METHODS)
        _require(_is_int(self.seed) and self.seed >= 0,
                 "seed must be a non-negative integer")
        _require(_is_int(self.samples) and self.samples >= 1,
                 "samples must be a positive integer")


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


def _require(cond: bool, msg: str, *args) -> None:
    """Refuse (InputError) unless cond; msg is formatted with args only then."""
    if not cond:
        raise InputError(msg.format(*args))


def _is_int(x) -> bool:
    """A JSON integer: Python's json gives true/false as bool, an int subclass."""
    return isinstance(x, int) and not isinstance(x, bool)


def _is_real(x) -> bool:
    """A finite JSON number; json also parses NaN, Infinity, true/false and
    integers too large for a float, on which math.isfinite raises."""
    try:
        return isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x)
    except OverflowError:
        return False


def _all_real(xs) -> bool:
    """all(map(_is_real, xs)) in C when all are int or float: fsum is finite only if
    each entry is, and raises where a huge int or an overflow needs the slow check."""
    if set(map(type, xs)) <= {int, float}:
        try:
            return math.isfinite(math.fsum(xs))
        except (OverflowError, ValueError):
            pass
    return all(map(_is_real, xs))


def _as_matrix(raw, rows: int, cols: int, name: str) -> tuple:
    _require(isinstance(raw, list) and len(raw) == rows,
             "{} must be a {}x{} matrix", name, rows, cols)
    out = []
    for i, row in enumerate(raw):
        _require(isinstance(row, list) and len(row) == cols,
                 "{} row {} must have {} entries", name, i + 1, cols)
        _require(_all_real(row),
                 "{} row {} has an entry that is not a finite number", name, i + 1)
        out.append(tuple(map(float, row)))
    return tuple(out)


def config_from_dict(doc: dict) -> ProblemConfig:
    _require(isinstance(doc, dict), "config document must be a JSON object")
    for key in doc:
        _require(key in ProblemConfig.__dataclass_fields__, "unknown config field {!r}", key)

    name = doc.get("name", "unnamed")
    _require(isinstance(name, str), "name must be a string")
    dim = doc.get("dim")
    _require(_is_int(dim) and dim >= 1, "dim must be a positive integer")
    try:  # left unwritten: refuses a size numpy cannot describe or malloc cannot give
        np.empty((dim, dim, dim))
    except (ValueError, OverflowError, MemoryError):
        raise InputError(
            f"dim = {dim} is too large: its structure tensor cannot be allocated") from None
    h_dim = doc.get("h_dim", 0)
    _require(_is_int(h_dim) and 0 <= h_dim <= dim,
             "h_dim must be an integer in [0, {}]", dim)
    m_dim = dim - h_dim

    raw_sc = doc.get("structure_constants", [])
    _require(isinstance(raw_sc, list), "structure_constants must be a list")
    seen: dict[tuple[int, int, int], float] = {}
    entries = []
    for pos, entry in enumerate(raw_sc, 1):
        i, j, k, v = entry if type(entry) is list and len(entry) == 4 else (0, 0, 0, 0)
        if not (type(i) is type(j) is type(k) is int and type(v) in (int, float)
                and 0 < min(i, j, k) and max(i, j, k) <= dim and abs(v) <= sys.float_info.max
                and (i != j or v == 0) and (i, j, k) not in seen
                and seen.get((j, i, k), -v) == -v):
            at = f"structure_constants entry {pos}"  # it breaks a rule: name the first
            _require(isinstance(entry, list) and len(entry) == 4,
                     "{} must be [i, j, k, value]", at)
            i, j, k, v = entry
            _require(all(map(_is_int, (i, j, k))), "{}: indices must be integers", at)
            _require(_is_real(v), "{}: value must be a finite number", at)
            for idx in (i, j, k):
                _require(1 <= idx <= dim, "{}: index {} out of range [1, {}]", at, idx, dim)
            _require(i != j or v == 0, "{0}: [e_{1}, e_{1}] must vanish", at, i)
            _require((i, j, k) not in seen, "{}: duplicate index triple {}", at, (i, j, k))
            _require(seen.get((j, i, k), -float(v)) == -float(v),
                     "{}: conflicts with the entry for {} (antisymmetry)", at, (j, i, k))
        seen[i, j, k] = float(v)
        entries.append((i, j, k, float(v)))

    g0 = _as_matrix(doc["g0"], dim, dim, "g0") if "g0" in doc else None
    phi = _as_matrix(doc["phi"], m_dim, m_dim, "phi") if "phi" in doc else None

    X = None
    if "X" in doc:
        raw_x = doc["X"]
        _require(isinstance(raw_x, list) and len(raw_x) == m_dim,
                 "X must be a vector of length m_dim = {}", m_dim)
        _require(_all_real(raw_x), "X has an entry that is not a finite number")
        X = tuple(map(float, raw_x))

    raw_flags = doc.get("flags", [])
    _require(isinstance(raw_flags, list), "flags must be a list")
    flags = []
    for pos, pair in enumerate(raw_flags):
        _require(isinstance(pair, list) and len(pair) == 2,
                 "flag {} must be a pair [Y, U]", pos + 1)
        vecs = []
        for which, raw_v in zip(("Y", "U"), pair):
            _require(isinstance(raw_v, list) and len(raw_v) == m_dim,
                     "flag {} {} must have length m_dim = {}", pos + 1, which, m_dim)
            _require(_all_real(raw_v),
                     "flag {} {} has an entry that is not a finite number",
                     pos + 1, which)
            vecs.append(tuple(map(float, raw_v)))
        flags.append((vecs[0], vecs[1]))

    raw_opts = doc.get("options", {})
    _require(isinstance(raw_opts, dict), "options must be an object")
    for key in raw_opts:
        _require(key in RunOptions.__dataclass_fields__, "unknown option {!r}", key)

    return ProblemConfig(
        name=name,
        dim=dim,
        h_dim=h_dim,
        structure_constants=tuple(entries),
        g0=g0,
        phi=phi,
        X=X,
        flags=tuple(flags),
        options=RunOptions(**raw_opts),
    )


def parse_config(path: str | Path) -> ProblemConfig:
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")  # JSON text is UTF-8 (RFC 8259)
    except OSError as exc:
        raise InputError(f"cannot read config file {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise InputError(f"config file {path} is not UTF-8 text: {exc}") from exc
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
    # config_from_dict lets a mirror entry in only with the opposite value
    for i, j, k, v in config.structure_constants:
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
        # no phi is the default; an empty tuple of rows is the 0x0 matrix
        phi=None if config.phi is None else np.array(config.phi or np.zeros((0, 0))),
    )
    X = np.array(config.X) if config.X is not None else np.zeros(config.m_dim)
    data = FinslerData(g=geom.inner, X=X)
    flags = [(np.array(y), np.array(u)) for y, u in config.flags]
    return geom, data, flags
