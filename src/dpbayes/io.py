"""Loaders for the network, dataset, grid, and regression file formats.

Network files are JSON:

    {"nodes": 3,
     "parents": [[], [0], [0]],
     "priors": {"default": [1.0, 1.0],
                "overrides": [[1, 0, 2.0, 3.0]]}}

overrides rows are (node, parent-configuration, alpha, beta). The node
count, every parent index and each override's node and configuration
must be JSON integers, every parent row a list, every prior parameter a
JSON number, and the parents acyclic. A key not shown above, or a prior
row of another length, is refused. Binary datasets are headerless CSV
of 0/1 values, one record per row. The canonical spelling, equal-width lines
of `0`/`1` cells joined by single commas and each ending in a newline
(as `np.savetxt(fmt="%d", delimiter=",")` writes it), is read in one
vectorised pass over the file's bytes. Other integer spellings of 0/1
(blank lines, CRLF, spaces, quotes, signs, leading zeros, no final
newline) are still accepted, at `np.loadtxt` speed, and a bad cell is
still reported with its file line number.
Regression data is numeric CSV with the target in the last column.
Grid files are numeric CSV rows of (parameter components..., prior mass).
Utility files hold one number per line, one line per grid point.
Regression, grid and utility files must hold finite numbers only.
"""
from __future__ import annotations

import csv
import json
import warnings
from pathlib import Path

import numpy as np

from .errors import ConfigError, CyclicGraphError, InvalidArgumentError
from .expmech import GridSpec
from .graph import BayesNetGraph, BetaParams, BetaTable, Dataset


def load_network(path: str | Path) -> tuple[BayesNetGraph, BetaTable]:
    try:
        spec = json.loads(Path(path).read_text())
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read network file {path}: {exc}") from exc
    try:
        graph = BayesNetGraph(
            node_count=_json(int, "node count", spec["nodes"]),
            parents=tuple(
                tuple(_json(int, "parent index", p) for p in _json(list, "parent row", row))
                for row in _json(list, "parents", spec["parents"])
            ),
        )
    except (KeyError, TypeError, ValueError, CyclicGraphError) as exc:
        raise ConfigError(f"malformed network file {path}: {exc}") from exc

    priors_spec = spec.get("priors", {})
    if not isinstance(priors_spec, dict) or not isinstance(priors_spec.get("overrides", []), list):
        raise ConfigError(f"{path}: priors must be an object whose overrides are a list")
    unknown = sorted(set(spec) - {"nodes", "parents", "priors"})
    unknown += [f"priors.{key}" for key in sorted(set(priors_spec) - {"default", "overrides"})]
    if unknown:
        raise ConfigError(f"{path}: unknown network key {', '.join(map(repr, unknown))}")
    default = priors_spec.get("default", [1.0, 1.0])
    try:
        base = BetaParams(*(_json(float, "prior parameter", v) for v in _prior_row(default, 2)))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{path}: bad default prior: {exc}") from exc
    priors = dict.fromkeys(graph.entry_keys(), base)
    overridden = set()
    for row in priors_spec.get("overrides", []):
        try:
            values = _prior_row(row, 4)
            key = tuple(_json(int, "override node or configuration", v) for v in values[:2])
            prior = BetaParams(*(_json(float, "prior parameter", v) for v in values[2:]))
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"{path}: bad prior override {row!r}: {exc}") from exc
        if key not in priors:
            raise ConfigError(f"{path}: override {row!r} names a nonexistent entry")
        if key in overridden:
            raise ConfigError(f"{path}: entry {key} has a second prior override {row!r}")
        overridden.add(key)
        priors[key] = prior
    return graph, BetaTable.of(priors)


def _prior_row(row, size: int) -> list:
    """row, once it is a JSON list of exactly size values."""
    if len(_json(list, "prior row", row)) != size:
        raise InvalidArgumentError(f"a prior row holds {size} values, got {row!r}")
    return row


def _json(kind: type, what: str, value):
    """value, once its type is exactly kind (an int counts as a float); JSON true is no int."""
    if type(value) is not kind and not (kind is float and type(value) is int):
        name = "number" if kind is float else kind.__name__
        raise InvalidArgumentError(f"{what} must be a JSON {name}, got {value!r}")
    return float(value) if kind is float else value


def load_dataset(path: str | Path) -> Dataset:
    try:
        records = _canonical_records(Path(path).read_bytes())
    except OSError as exc:
        raise ConfigError(f"cannot read dataset {path}: {exc}") from exc
    if records is None:
        records = _loadtxt_records(path)
    try:
        return Dataset(records)
    except ValueError as exc:
        raise ConfigError(f"dataset {path}: {exc}") from exc


def _canonical_records(raw: bytes) -> np.ndarray | None:
    """Records of a canonically spelled dataset, or None for any other file.

    Canonical: every line has the width of the first, holds `0`/`1` cells
    in its even columns and commas in its odd ones, and ends in a newline.
    """
    width = raw.find(b"\n") + 1  # line length, newline included
    if width < 2 or width % 2 or len(raw) % width:
        return None
    lines = np.frombuffer(raw, np.uint8).reshape(-1, width)
    template = np.frombuffer(b"1," * (width // 2 - 1) + b"1\n", np.uint8)
    # OR-ing 1 into the cell columns maps "0" and "1" both to "1"
    if not ((lines | (template == ord("1"))) == template).all():
        return None
    return lines[:, :-1:2] - ord("0")


def _loadtxt_records(path: str | Path) -> np.ndarray:
    """Records of a dataset in any spelling that `np.loadtxt` reads as integers."""
    try:
        lines = Path(path).read_text().splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read dataset {path}: {exc}") from exc
    rows = [line for line in lines if line]
    if not rows:
        raise ConfigError(f"dataset {path} is empty")
    try:
        # NumPy 1.23-1.26 parse a float-form cell such as "0.5" into an int by
        # truncation and only warn; make that warning an error so such a cell
        # is rejected on every supported NumPy, as int() rejects it.
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            return np.loadtxt(
                rows, delimiter=",", dtype=np.int64, ndmin=2, comments=None, quotechar='"'
            )
    except (ValueError, DeprecationWarning) as exc:
        _raise_non_integer_cell(path, lines)
        raise ConfigError(f"dataset {path}: {exc}") from exc


def _raise_non_integer_cell(path: str | Path, lines: list[str]) -> None:
    """Name the first file line (1-based, blank lines counted) with a non-integer cell."""
    for line_no, line in enumerate(lines, start=1):
        try:
            [int(v) for v in next(csv.reader([line]), [])]
        except ValueError as exc:
            raise ConfigError(f"{path}:{line_no}: non-integer cell: {exc}") from exc


def _finite_csv(path: str | Path, what: str, ndmin: int) -> np.ndarray:
    """The cells of a numeric CSV file, all finite; `what` names the file in errors."""
    try:
        raw = np.loadtxt(path, delimiter=",", dtype=np.float64, ndmin=ndmin)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read {what} {path}: {exc}") from exc
    if not np.isfinite(raw).all():
        raise ConfigError(f"{what} {path} holds a non-finite value")
    return raw


def load_regression_csv(path: str | Path) -> tuple[np.ndarray, np.ndarray]:
    raw = _finite_csv(path, "regression data", 2)
    if raw.shape[1] < 2:
        raise ConfigError(f"regression data {path} needs features plus a target column")
    return raw[:, :-1], raw[:, -1]


def load_grid(path: str | Path) -> GridSpec:
    raw = _finite_csv(path, "grid file", 2)
    if raw.shape[1] < 2:
        raise ConfigError(f"grid file {path} needs parameter columns plus a mass column")
    try:
        return GridSpec(points=raw[:, :-1], prior_mass=raw[:, -1])
    except ValueError as exc:
        raise ConfigError(f"grid file {path}: {exc}") from exc


def load_utility(path: str | Path, size: int) -> np.ndarray:
    """One utility value per grid point, in grid order."""
    utility = _finite_csv(path, "utility file", 1)
    if utility.shape != (size,):
        raise ConfigError(
            f"utility file {path} has shape {utility.shape}, grid has {size} points"
        )
    return utility
