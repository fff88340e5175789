"""Command-line entry point.

Four tasks: `nb` and `linreg` run experiment sweeps and write tidy
metric CSVs; `mechanism` runs one mechanism once and prints its raw
release; `verify` emits the privacy-loss table as a JSON report.
Options come from flags, from a TOML or JSON config file, or from
positional key=value tokens (the mechanism task's native style), which
may sit before, between or after the flags; flags win over key=value
tokens, which win over the config file. Each setting is one row of
`_SETTINGS` (its kind, readers and flag); the parser is built from the
rows, and every given value is read once, by its kind.

Exit codes: 0 success, 1 configuration error, 2 a failing privacy-loss row.
"""
from __future__ import annotations

import argparse
import functools
import json
import logging
import sys
from pathlib import Path
from typing import NamedTuple

from . import expmech, fourier, laplace, sampler
from .errors import ConfigError, DpBayesError, InvalidArgumentError, check_integer
from .graph import compute_updates, posterior_params
from .harness import ExperimentConfig, rows_to_csv, run_experiment
from .io import load_dataset, load_grid, load_network, load_utility
from .verify import run_verification_suite

log = logging.getLogger("dpbayes.cli")

_TASKS = ("nb", "linreg", "mechanism", "verify")
_TASK_METAVAR = "{" + ",".join(_TASKS) + "}"
_MECHANISMS = ("laplace", "fourier", "sampler", "map")
_RELEASES = ("laplace", "fourier", "sampler")  # the mechanisms that read a network and a dataset
_SWEEPS = ("nb", "linreg")
_ALL = (*_SWEEPS, "verify", *_MECHANISMS)


class _Row(NamedTuple):
    kind: type  # tuple[item, ...] for a list setting
    readers: tuple[str, ...]  # the sweeps, verify and release mechanisms that read it
    flag: str | None = None  # without one, a setting comes as key=value or from the file
    help: str | None = None


# every setting; any other, or one the task or mechanism does not read, is a ConfigError
_SETTINGS = {
    "task": _Row(str, _ALL, "--task"),
    "config": _Row(str, (), "--config", "TOML or JSON config file"),
    "mechanisms": _Row(tuple[str, ...], _SWEEPS, "--mechanisms", "comma-separated mechanism list"),
    "epsilon_grid": _Row(tuple[float, ...], ("nb",), "--epsilon-grid", "comma-separated epsilons"),
    "b_grid": _Row(tuple[float, ...], ("linreg",), "--b-grid", "comma-separated prior precisions"),
    "repeats": _Row(int, _SWEEPS, "--repeats"),
    "seed": _Row(int, _ALL, "--seed"),
    "train_fraction": _Row(float, _SWEEPS, "--train-frac"),
    "out": _Row(str, _ALL, "--out", "output path, '-' for stdout (default)"),
    "d": _Row(int, _SWEEPS, "--d", "feature count for synthetic data"),
    "n": _Row(int, _SWEEPS, "--n", "record count for synthetic data"),
    "sampler_samples": _Row(int, ("nb",), "--sampler-samples"),
    "regression_samples": _Row(int, ("linreg",), "--regression-samples"),
    "fourier_t": _Row(float, ("nb",), "--fourier-t"),
    "threshold": _Row(float, ("nb",), "--threshold"),
    "sigma2": _Row(float, ("linreg",), "--sigma2"),
    "radius": _Row(float, ("linreg",), "--radius"),
    "noise_sigma": _Row(float, ("linreg",), "--noise-sigma"),
    "dataset": _Row(str, (*_SWEEPS, *_RELEASES), "--dataset", "CSV dataset path"),
    "network": _Row(str, _RELEASES, "--network", "network JSON path (mechanism task)"),
    "grid": _Row(str, ("map",), "--grid", "grid CSV path (map mechanism)"),
    "utility": _Row(str, ("map",), "--utility", "utility CSV path (map mechanism)"),
    "mechanism": _Row(str, _MECHANISMS),
    "epsilon": _Row(float, _MECHANISMS),
    "t": _Row(float, ("fourier",)),
    "samples": _Row(int, ("sampler",)),
    "delta": _Row(float, ("map",)),
    "draws": _Row(int, ("map",)),
}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="dpbayes",
        description="Differentially private Bayesian inference experiments",
    )
    for key, row in _SETTINGS.items():
        if row.flag:
            metavar = _TASK_METAVAR if key == "task" else None
            p.add_argument(row.flag, dest=key, metavar=metavar, help=row.help)
    example = "mechanism-task settings, e.g. mechanism=laplace epsilon=1 seed=7"
    p.add_argument("pairs", nargs="*", metavar="key=value", help=example)
    # parse_intermixed_args renders the whole usage on every call while it is unset
    p.usage = p.format_usage().removeprefix("usage: ").rstrip("\n").replace("%", "%%")
    return p


def _load_config_file(path: str) -> dict:
    text = Path(path).read_bytes()
    if path.endswith(".json"):
        try:
            return json.loads(text)
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ConfigError(f"bad JSON config {path}: {exc}") from exc
    try:
        import tomllib
    except ModuleNotFoundError as exc:  # Python 3.10
        raise ConfigError("TOML config needs Python 3.11+; use JSON instead") from exc
    try:
        return tomllib.loads(text.decode())
    except (UnicodeDecodeError, tomllib.TOMLDecodeError) as exc:
        raise ConfigError(f"bad TOML config {path}: {exc}") from exc


def _merge_settings(ns: argparse.Namespace) -> dict:
    """The given settings, checked against the rows the task reads, each read by its kind."""
    flags = {key: value for key, value in vars(ns).items() if value is not None}
    config, pairs = flags.pop("config", None), flags.pop("pairs")
    settings: dict = {}
    if config:
        file_map = _load_config_file(config)
        if not isinstance(file_map, dict):
            raise ConfigError("config file must hold a table of settings")
        settings.update(file_map)
    for token in pairs:
        if "=" not in token:
            raise ConfigError(f"expected key=value, got {token!r}")
        key, value = token.split("=", 1)
        settings[key.strip().replace("-", "_")] = value
    settings.update(flags)
    task = settings.get("task")
    if task is None:
        raise ConfigError(f"no task given; use --task {_TASK_METAVAR}")
    if not isinstance(task, str) or task not in _TASKS:
        raise ConfigError(f"unknown task {task!r}")
    readers, scope = (set(_MECHANISMS) if task == "mechanism" else {task}), f"task {task!r}"
    mechanism = settings.get("mechanism")
    if task == "mechanism" and mechanism in _MECHANISMS:
        readers, scope = {mechanism}, f"mechanism {mechanism!r}"
    read = {key for key, row in _SETTINGS.items() if readers & {*row.readers}}
    unknown = sorted(set(settings) - read)
    if unknown:
        raise ConfigError(f"unknown setting {', '.join(map(repr, unknown))} for {scope}")
    given = {}
    for key, value in settings.items():
        try:
            if value is not None:
                given[key] = _read(key, value, _SETTINGS[key].kind)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad value for {key}: {value!r} ({exc})") from exc
    return given


def _read(key: str, value, kind):
    """`value` of setting `key`, read by `kind`; a string is a flag's, a token's or a file's."""
    if kind not in (int, float, str):  # a list of kind.__args__[0] items
        # a comma-separated string, each item stripped, or a config file's list
        items = [v.strip() for v in value.split(",")] if isinstance(value, str) else list(value)
        if "" in items:
            raise InvalidArgumentError("an item is empty")
        return tuple(_read(key, item, kind.__args__[0]) for item in items)
    if isinstance(value, str):
        return kind(value)
    if kind is int:  # int() would truncate a file's 1.9
        return check_integer(key, value)
    if kind is str:  # str() would turn a file's true into the path "True"
        raise InvalidArgumentError("not a string")
    if isinstance(value, bool):  # float() would read a file's true as 1.0
        raise InvalidArgumentError("a boolean is not a number")
    return float(value)


def _emit(out: str, lines: list[str]) -> int:
    """Write the lines, each newline-terminated, to `out` ('-' or '' for stdout); returns 0."""
    text = "\n".join(lines) + "\n"
    if out in ("-", ""):
        sys.stdout.write(text)
    else:
        Path(out).write_text(text)
    return 0


# ---------------------------------------------------------------------------
# single-mechanism task
# ---------------------------------------------------------------------------


def _require(settings: dict, key: str):
    if key not in settings:
        raise ConfigError(f"mechanism task needs {key}=...")
    return settings[key]


def _run_mechanism(settings: dict, out: str) -> int:
    name = _require(settings, "mechanism")
    seed = settings.get("seed", 0)
    epsilon = _require(settings, "epsilon")

    if name == "map":
        grid = load_grid(_require(settings, "grid"))
        if "utility" in settings:
            utility = load_utility(settings["utility"], grid.size)
        else:
            # Without a utility file the draw reduces to prior sampling.
            utility = [0.0] * grid.size
        delta_value = settings.get("delta", 0.5)
        draws = settings.get("draws", 1)
        if not delta_value > 0 or draws < 0:
            raise ConfigError(f"map needs delta > 0 and draws >= 0, got {delta_value} and {draws}")
        sens = expmech.MapSensitivity(kind="lipschitz", delta_value=delta_value)
        idx = expmech.exp_mechanism_indices(grid, utility, epsilon, sens, seed, draws)
        lines = ["draw,point"]
        for i, gi in enumerate(idx):
            coords = ";".join(repr(c) for c in grid.points[gi].tolist())
            lines.append(f"{i},{coords}")
        return _emit(out, lines)

    if name not in _RELEASES:
        raise ConfigError(f"unknown mechanism {name!r}")
    graph, priors = load_network(_require(settings, "network"))
    data = load_dataset(_require(settings, "dataset"))
    updates = compute_updates(graph, data)  # every release reads the one count

    if name == "laplace":
        spec = laplace.LaplaceNoiseSpec.for_graph(graph, epsilon, data.n)
        pert = laplace.perturb_updates(updates, spec, seed)
        lines = ["node,config,z1,z2"]
        for (i, j), (z1, z2) in zip(pert.entries.order, pert.entries.array.tolist()):
            lines.append(f"{i},{j},{z1!r},{z2!r}")
        return _emit(out, lines)

    if name == "fourier":
        t = settings.get("t", fourier.DEFAULT_STEALTH_T)
        z, post, floored = fourier.release_posterior_stack(
            updates.entries.array[None], graph, priors, (epsilon,), t, ((seed,),)
        )
        if floored[0, 0]:
            log.warning("stealth failed; negative cells floored at zero")
        lines = ["section,key1,key2,value"]
        for gamma, value in zip(fourier.downward_closure(graph).members, z[0, 0].tolist()):
            lines.append(f"coefficient,{gamma:#x},,{value!r}")
        for (i, j), (alpha, beta) in zip(graph.entry_keys(), post[0, 0].tolist()):
            lines.append(f"posterior,{i},{j},{alpha!r};{beta!r}")
        return _emit(out, lines)

    # the sampler, the one release left
    samples = settings.get("samples", 1)
    if samples < 0:
        raise ConfigError(f"samples must be non-negative, got {samples}")
    post = posterior_params(priors, updates)
    draws = sampler.trimmed_posterior_draws(post, sampler.trim_bound(epsilon), seed, samples)
    lines = ["node,config,draw,theta"]
    for s, column in enumerate(draws.array.T.tolist()):
        for (i, j), theta in zip(draws.order, column):
            lines.append(f"{i},{j},{s},{theta!r}")
    return _emit(out, lines)


def _run_verify(settings: dict, out: str) -> int:
    # the suite keeps its own default seed unless one is given
    checks = run_verification_suite(**{k: v for k, v in settings.items() if k == "seed"})
    ok = all(c["passed"] for c in checks)
    _emit(out, [json.dumps({"passed": ok, "checks": checks}, indent=2)])
    return 0 if ok else 2


def main(argv: list[str] | None = None) -> int:
    try:
        # intermixed, so key=value tokens may sit on either side of any flag
        ns = _build_parser().parse_intermixed_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad flags; report config errors as 1
        return 0 if exc.code == 0 else 1
    logging.basicConfig(level=logging.INFO, stream=sys.stderr, format="%(name)s: %(message)s")
    try:
        settings = _merge_settings(ns)
        task, out = settings["task"], settings.get("out", "-")
        if task == "verify":
            return _run_verify(settings, out)
        if task == "mechanism":
            return _run_mechanism(settings, out)
        config = ExperimentConfig(**{k: v for k, v in settings.items() if k != "out"})
        rows = run_experiment(config).rows
        return _emit(out, rows_to_csv(rows).splitlines())
    except ConfigError as exc:
        print(f"dpbayes: config error: {exc}", file=sys.stderr)
        return 1
    except (DpBayesError, OSError) as exc:
        print(f"dpbayes: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
