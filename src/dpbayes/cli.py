"""Command-line entry point.

Four tasks: `nb` and `linreg` run experiment sweeps and write tidy
metric CSVs; `mechanism` runs one mechanism once and prints its raw
release; `verify` emits the privacy-loss table as a JSON report.
Options come from flags, from a TOML or JSON config file, or from
positional key=value tokens (the mechanism task's native style), which
may sit before, between or after the flags; flags win over key=value
tokens, which win over the config file.

Exit codes: 0 success, 1 configuration error, 2 a failing privacy-loss row.
"""
from __future__ import annotations

import argparse
import functools
import json
import logging
import sys
from pathlib import Path

from . import expmech, fourier, laplace, sampler
from .errors import ConfigError, DpBayesError, InvalidArgumentError, check_integer
from .graph import compute_updates, posterior_params
from .harness import ExperimentConfig, rows_to_csv, run_experiment
from .io import load_dataset, load_grid, load_network, load_utility
from .verify import run_verification_suite

log = logging.getLogger("dpbayes.cli")

# the settings each task, and each mechanism of the mechanism task,
# reads; any other setting is a ConfigError
_COMMON_KEYS = ("task", "seed", "out")
_SWEEP_KEYS = (*_COMMON_KEYS, "mechanisms", "repeats", "train_fraction", "d", "n", "dataset")
_RELEASE_KEYS = (*_COMMON_KEYS, "mechanism", "epsilon", "network", "dataset")
_MECHANISM_KEYS = {
    "laplace": {*_RELEASE_KEYS},
    "fourier": {*_RELEASE_KEYS, "t"},
    "sampler": {*_RELEASE_KEYS, "samples"},
    "map": {*_COMMON_KEYS, "mechanism", "epsilon", "grid", "utility", "delta", "draws"},
}
_TASK_KEYS = {
    "nb": {*_SWEEP_KEYS, "epsilon_grid", "sampler_samples", "fourier_t", "threshold"},
    "linreg": {*_SWEEP_KEYS, "b_grid", "regression_samples", "sigma2", "radius", "noise_sigma"},
    "mechanism": set().union(*_MECHANISM_KEYS.values()),
    "verify": set(_COMMON_KEYS),
}
# argparse destinations that are not settings
_NON_SETTINGS = ("config", "pairs")
# ExperimentConfig fields taken from the settings when given, with their types
_EXPERIMENT_FIELDS = {
    **dict.fromkeys(("epsilon_grid", "b_grid"), tuple),
    **dict.fromkeys(("repeats", "seed", "d", "n", "sampler_samples", "regression_samples"), int),
    **dict.fromkeys(
        ("train_fraction", "fourier_t", "threshold", "sigma2", "radius", "noise_sigma"), float
    ),
    "dataset": str,
}


def _parse_grid(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(v) for v in text.split(",") if v.strip() != "")
    except ValueError as exc:
        raise ConfigError(f"bad numeric grid {text!r}: {exc}") from exc


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="dpbayes",
        description="Differentially private Bayesian inference experiments",
    )
    p.add_argument("--task", metavar="{nb,linreg,mechanism,verify}")
    p.add_argument("--config", help="TOML or JSON config file")
    p.add_argument("--mechanisms", help="comma-separated mechanism list")
    p.add_argument("--epsilon-grid", dest="epsilon_grid", help="comma-separated epsilons")
    p.add_argument("--b-grid", dest="b_grid", help="comma-separated prior precisions")
    p.add_argument("--repeats")
    p.add_argument("--seed")
    p.add_argument("--train-frac", dest="train_fraction")
    p.add_argument("--out", help="output path, '-' for stdout (default)")
    p.add_argument("--d", help="feature count for synthetic data")
    p.add_argument("--n", help="record count for synthetic data")
    p.add_argument("--sampler-samples", dest="sampler_samples")
    p.add_argument("--regression-samples", dest="regression_samples")
    p.add_argument("--fourier-t", dest="fourier_t")
    p.add_argument("--threshold")
    p.add_argument("--sigma2")
    p.add_argument("--radius")
    p.add_argument("--noise-sigma", dest="noise_sigma")
    p.add_argument("--dataset", help="CSV dataset path")
    p.add_argument("--network", help="network JSON path (mechanism task)")
    p.add_argument("--grid", help="grid CSV path (map mechanism)")
    p.add_argument("--utility", help="utility CSV path (map mechanism)")
    p.add_argument(
        "pairs",
        nargs="*",
        metavar="key=value",
        help="mechanism-task settings, e.g. mechanism=laplace epsilon=1 seed=7",
    )
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
    settings: dict = {}
    if ns.config:
        file_map = _load_config_file(ns.config)
        if not isinstance(file_map, dict):
            raise ConfigError("config file must hold a table of settings")
        settings.update(file_map)
    for token in ns.pairs:
        if "=" not in token:
            raise ConfigError(f"expected key=value, got {token!r}")
        key, value = token.split("=", 1)
        settings[key.strip().replace("-", "_")] = value
    settings.update(
        (key, value)
        for key, value in vars(ns).items()
        if key not in _NON_SETTINGS and value is not None
    )
    task = settings.get("task")
    if task is None:
        raise ConfigError("no task given; use --task {nb,linreg,mechanism,verify}")
    if not isinstance(task, str) or task not in _TASK_KEYS:
        raise ConfigError(f"unknown task {task!r}")
    allowed, scope = _TASK_KEYS[task], f"task {task!r}"
    mechanism = settings.get("mechanism")
    if task == "mechanism" and isinstance(mechanism, str) and mechanism in _MECHANISM_KEYS:
        allowed, scope = _MECHANISM_KEYS[mechanism], f"mechanism {mechanism!r}"
    unknown = sorted(set(settings) - allowed)
    if unknown:
        raise ConfigError(f"unknown setting {', '.join(map(repr, unknown))} for {scope}")
    return settings


def _file_float(value) -> float:
    """float() of a config file's number; it would read true as 1.0."""
    if isinstance(value, bool):
        raise InvalidArgumentError("a boolean is not a number")
    return float(value)


def _coerce(settings: dict, key: str, kind, default=None):
    if key not in settings or settings[key] is None:
        return default
    value = settings[key]
    try:
        if isinstance(value, str):  # a key=value token, a flag or a file's string
            return _parse_grid(value) if kind is tuple else kind(value)
        if kind is int:  # int() would truncate a file's 1.9
            return check_integer(key, value)
        if kind is tuple:
            return tuple(_file_float(v) for v in value)
        if kind is float:
            return _file_float(value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad value for {key}: {value!r} ({exc})") from exc
    # str() would turn a file's true into the path "True"
    raise ConfigError(f"bad value for {key}: {value!r} (not a string)")


def _experiment_config(settings: dict, task: str) -> ExperimentConfig:
    """ExperimentConfig from the given settings; every other field keeps its default."""
    fields = {
        key: _coerce(settings, key, kind)
        for key, kind in _EXPERIMENT_FIELDS.items()
        if settings.get(key) is not None
    }
    if "dataset" in fields:
        # the dataset replaces the generated data, so the generator's settings go unread
        unread = sorted({"d", "n", "noise_sigma"} & set(fields))
        if unread:
            names = ", ".join(map(repr, unread))
            raise ConfigError(f"unknown setting {names} for task {task!r} with a dataset")
    mechanisms = settings.get("mechanisms")
    if isinstance(mechanisms, str):
        fields["mechanisms"] = tuple(m.strip() for m in mechanisms.split(",") if m.strip())
    elif isinstance(mechanisms, list) and all(isinstance(m, str) for m in mechanisms):
        fields["mechanisms"] = tuple(mechanisms)
    elif mechanisms is not None:
        raise ConfigError(f"bad value for mechanisms: {mechanisms!r} (not a list of names)")
    return ExperimentConfig(task=task, **fields)


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


def _require(settings: dict, key: str, kind=str):
    if settings.get(key) is None:
        raise ConfigError(f"mechanism task needs {key}=...")
    return _coerce(settings, key, kind)


def _run_mechanism(settings: dict, out: str) -> int:
    name = _require(settings, "mechanism")
    seed = _coerce(settings, "seed", int, 0)
    epsilon = _require(settings, "epsilon", float)

    if name == "map":
        grid = load_grid(_require(settings, "grid"))
        if settings.get("utility") is not None:
            utility = load_utility(_coerce(settings, "utility", str), grid.size)
        else:
            # Without a utility file the draw reduces to prior sampling.
            utility = [0.0] * grid.size
        delta_value = _coerce(settings, "delta", float, 0.5)
        draws = _coerce(settings, "draws", int, 1)
        if not delta_value > 0 or draws < 0:
            raise ConfigError(f"map needs delta > 0 and draws >= 0, got {delta_value} and {draws}")
        sens = expmech.MapSensitivity(kind="lipschitz", delta_value=delta_value)
        idx = expmech.exp_mechanism_indices(grid, utility, epsilon, sens, seed, draws)
        lines = ["draw,point"]
        for i, gi in enumerate(idx):
            coords = ";".join(repr(c) for c in grid.points[gi].tolist())
            lines.append(f"{i},{coords}")
        return _emit(out, lines)

    graph, priors = load_network(_require(settings, "network"))
    data = load_dataset(_require(settings, "dataset"))

    if name == "laplace":
        spec = laplace.LaplaceNoiseSpec.for_graph(graph, epsilon, data.n)
        pert = laplace.perturb_updates(compute_updates(graph, data), spec, seed)
        lines = ["node,config,z1,z2"]
        for (i, j), (z1, z2) in zip(pert.entries.order, pert.entries.array.tolist()):
            lines.append(f"{i},{j},{z1!r},{z2!r}")
        return _emit(out, lines)

    if name == "fourier":
        t = _coerce(settings, "t", float, fourier.DEFAULT_STEALTH_T)
        z, post, floored = fourier.release_posterior_stack(
            data, graph, priors, (epsilon,), t, (seed,)
        )
        if floored[0]:
            log.warning("stealth failed; negative cells floored at zero")
        lines = ["section,key1,key2,value"]
        for gamma, value in zip(fourier.downward_closure(graph).members, z[0].tolist()):
            lines.append(f"coefficient,{gamma:#x},,{value!r}")
        for (i, j), (alpha, beta) in zip(graph.entry_keys(), post[0].tolist()):
            lines.append(f"posterior,{i},{j},{alpha!r};{beta!r}")
        return _emit(out, lines)

    if name == "sampler":
        samples = _coerce(settings, "samples", int, 1)
        if samples < 0:
            raise ConfigError(f"samples must be non-negative, got {samples}")
        post = posterior_params(priors, compute_updates(graph, data))
        draws = sampler.trimmed_posterior_draws(post, sampler.trim_bound(epsilon), seed, samples)
        lines = ["node,config,draw,theta"]
        for s, column in enumerate(draws.array.T.tolist()):
            for (i, j), theta in zip(draws.order, column):
                lines.append(f"{i},{j},{s},{theta!r}")
        return _emit(out, lines)

    raise ConfigError(f"unknown mechanism {name!r}")


def _run_verify(settings: dict, out: str) -> int:
    checks = run_verification_suite(_coerce(settings, "seed", int, 20240817))
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
        task = settings["task"]
        out = _coerce(settings, "out", str, "-")
        if task == "verify":
            return _run_verify(settings, out)
        if task == "mechanism":
            return _run_mechanism(settings, out)
        rows = run_experiment(_experiment_config(settings, task)).rows
        return _emit(out, rows_to_csv(rows).splitlines())
    except ConfigError as exc:
        print(f"dpbayes: config error: {exc}", file=sys.stderr)
        return 1
    except (DpBayesError, OSError) as exc:
        print(f"dpbayes: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
