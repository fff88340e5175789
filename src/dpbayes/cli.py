"""Command-line entry point.

Four tasks: `nb` and `linreg` run experiment sweeps and write tidy
metric CSVs; `mechanism` runs one mechanism once and prints its raw
release; `verify` runs the oracle suite and emits a JSON report.
Options come from flags, from a TOML or JSON config file, or from
positional key=value tokens (the mechanism task's native style); flags
win over key=value tokens, which win over the config file.

Exit codes: 0 success, 1 configuration error, 2 verification failure.
"""
from __future__ import annotations

import argparse
import json
import logging
import math
import sys
from pathlib import Path

from . import expmech, fourier, laplace, sampler
from .errors import ConfigError, DpBayesError
from .graph import UpdateVector, compute_updates, posterior_params
from .harness import (
    DEFAULT_B_GRID,
    DEFAULT_EPSILON_GRID,
    ExperimentConfig,
    run_experiment,
    write_metrics,
)
from .io import load_dataset, load_grid, load_network
from .verify import run_verification_suite

log = logging.getLogger("dpbayes.cli")

# linreg sweeps default to a smaller, longer dataset than the nb task
LINREG_DEFAULT_D = 5
LINREG_DEFAULT_N = 2000


def _parse_grid(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(v) for v in text.split(",") if v.strip() != "")
    except ValueError as exc:
        raise ConfigError(f"bad numeric grid {text!r}: {exc}") from exc


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="dpbayes",
        description="Differentially private Bayesian inference experiments",
    )
    p.add_argument("--task", choices=("nb", "linreg", "mechanism", "verify"))
    p.add_argument("--config", help="TOML or JSON config file")
    p.add_argument("--mechanisms", help="comma-separated mechanism list")
    p.add_argument("--epsilon-grid", dest="epsilon_grid", help="comma-separated epsilons")
    p.add_argument("--b-grid", dest="b_grid", help="comma-separated prior precisions")
    p.add_argument("--repeats", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--train-frac", dest="train_fraction", type=float)
    p.add_argument("--out", help="output path, '-' for stdout (default)")
    p.add_argument("--d", type=int, help="feature count for synthetic data")
    p.add_argument("--n", type=int, help="record count for synthetic data")
    p.add_argument("--sampler-samples", dest="sampler_samples", type=int)
    p.add_argument("--regression-samples", dest="regression_samples", type=int)
    p.add_argument("--fourier-t", dest="fourier_t", type=float)
    p.add_argument("--threshold", type=float)
    p.add_argument("--sigma2", type=float)
    p.add_argument("--radius", type=float)
    p.add_argument("--noise-sigma", dest="noise_sigma", type=float)
    p.add_argument("--dataset", help="CSV dataset path")
    p.add_argument("--network", help="network JSON path (mechanism task)")
    p.add_argument("--grid", help="grid CSV path (map mechanism)")
    p.add_argument("--utility", help="utility CSV path (map mechanism)")
    p.add_argument("--verbose", action="store_true")
    p.add_argument(
        "pairs",
        nargs="*",
        metavar="key=value",
        help="mechanism-task settings, e.g. mechanism=laplace epsilon=1 seed=7",
    )
    return p


def _load_config_file(path: str) -> dict:
    text = Path(path).read_bytes()
    if path.endswith(".json"):
        try:
            return json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"bad JSON config {path}: {exc}") from exc
    try:
        import tomllib
    except ModuleNotFoundError as exc:  # Python 3.10
        raise ConfigError("TOML config needs Python 3.11+; use JSON instead") from exc
    try:
        return tomllib.loads(text.decode())
    except tomllib.TOMLDecodeError as exc:
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
    for key in (
        "task mechanisms epsilon_grid b_grid repeats seed train_fraction out d n "
        "sampler_samples regression_samples fourier_t threshold sigma2 radius "
        "noise_sigma dataset network grid utility"
    ).split():
        value = getattr(ns, key, None)
        if value is not None:
            settings[key] = value
    return settings


def _coerce(settings: dict, key: str, kind, default=None):
    if key not in settings or settings[key] is None:
        return default
    value = settings[key]
    try:
        if kind is tuple:
            return _parse_grid(value) if isinstance(value, str) else tuple(float(v) for v in value)
        if kind is bool:
            return value in (True, "true", "1", "yes")
        return kind(value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad value for {key}: {value!r} ({exc})") from exc


def _experiment_config(settings: dict, task: str) -> ExperimentConfig:
    mechanisms = settings.get("mechanisms")
    if isinstance(mechanisms, str):
        mechanisms = tuple(m.strip() for m in mechanisms.split(",") if m.strip())
    elif mechanisms is not None:
        mechanisms = tuple(mechanisms)
    else:
        mechanisms = ("none", "laplace", "fourier", "sampler") if task == "nb" else ("none", "sampler")
    d_default, n_default = (LINREG_DEFAULT_D, LINREG_DEFAULT_N) if task == "linreg" else (16, 1000)
    return ExperimentConfig(
        task=task,
        mechanisms=mechanisms,
        epsilon_grid=_coerce(settings, "epsilon_grid", tuple, DEFAULT_EPSILON_GRID),
        b_grid=_coerce(settings, "b_grid", tuple, DEFAULT_B_GRID),
        repeats=_coerce(settings, "repeats", int, 100),
        train_fraction=_coerce(settings, "train_fraction", float, 0.05),
        seed=_coerce(settings, "seed", int, 0),
        out=str(settings.get("out", "-")),
        d=_coerce(settings, "d", int, d_default),
        n=_coerce(settings, "n", int, n_default),
        sampler_samples=_coerce(settings, "sampler_samples", int, 1000),
        regression_samples=_coerce(settings, "regression_samples", int, 100),
        fourier_t=_coerce(settings, "fourier_t", float, math.log(10.0)),
        threshold=_coerce(settings, "threshold", float, 0.5),
        sigma2=_coerce(settings, "sigma2", float, 1.0),
        radius=_coerce(settings, "radius", float, None),
        noise_sigma=_coerce(settings, "noise_sigma", float, 0.1),
        dataset=settings.get("dataset"),
    )


def _emit(out: str, text: str) -> None:
    if out in ("-", "", None):
        sys.stdout.write(text)
    else:
        Path(out).write_text(text)


# ---------------------------------------------------------------------------
# single-mechanism task
# ---------------------------------------------------------------------------


def _require(settings: dict, key: str) -> str:
    value = settings.get(key)
    if value is None:
        raise ConfigError(f"mechanism task needs {key}=...")
    return str(value)


def _run_mechanism(settings: dict) -> int:
    name = _require(settings, "mechanism")
    seed = _coerce(settings, "seed", int, 0)
    out = str(settings.get("out", "-"))

    if name == "map":
        epsilon = _coerce(settings, "epsilon", float, None)
        if epsilon is None:
            raise ConfigError("mechanism task needs epsilon=...")
        grid = load_grid(_require(settings, "grid"))
        if settings.get("utility") is not None:
            import numpy as np

            utility = np.loadtxt(str(settings["utility"]), delimiter=",", ndmin=1)
        else:
            # Without a utility file the draw reduces to prior sampling.
            utility = [0.0] * grid.size
        delta_value = _coerce(settings, "delta", float, 0.5)
        sens = expmech.MapSensitivity(kind="lipschitz", delta_value=delta_value)
        draws = _coerce(settings, "draws", int, 1)
        idx = expmech.exp_mechanism_indices(grid, utility, epsilon, sens, seed, draws)
        lines = ["draw,point"]
        for i, gi in enumerate(idx):
            coords = ";".join(repr(c) for c in grid.points[int(gi)])
            lines.append(f"{i},{coords}")
        _emit(out, "\n".join(lines) + "\n")
        return 0

    graph, priors = load_network(_require(settings, "network"))
    data = load_dataset(_require(settings, "dataset"))
    epsilon = _coerce(settings, "epsilon", float, None)
    if epsilon is None:
        raise ConfigError("mechanism task needs epsilon=...")

    if name == "laplace":
        spec = laplace.LaplaceNoiseSpec(
            epsilon=epsilon, node_count=graph.node_count, n=data.n
        )
        pert = laplace.perturb_updates(compute_updates(graph, data), spec, seed)
        lines = ["node,config,z1,z2"]
        for (i, j), (z1, z2) in sorted(pert.entries.items()):
            lines.append(f"{i},{j},{z1!r},{z2!r}")
        _emit(out, "\n".join(lines) + "\n")
        return 0

    if name == "fourier":
        t = _coerce(settings, "t", float, math.log(10.0))
        closure = fourier.downward_closure(graph)
        retry_limit = _coerce(settings, "retries", int, 50)
        coeffs, post, _, clamped = fourier.release_with_retries(
            data, closure, graph, priors, epsilon, t, seed, retry_limit
        )
        if clamped:
            log.warning("stealth failed %d times; clamping", retry_limit + 1)
        lines = ["section,key1,key2,value"]
        for gamma in closure.members:
            lines.append(f"coefficient,{gamma:#x},,{coeffs.values[gamma]!r}")
        for (i, j), params in sorted(post.items()):
            lines.append(f"posterior,{i},{j},{params.alpha!r};{params.beta!r}")
        _emit(out, "\n".join(lines) + "\n")
        return 0

    if name == "sampler":
        samples = _coerce(settings, "samples", int, 1)
        if samples < 0:
            raise ConfigError(f"samples must be non-negative, got {samples}")
        post = posterior_params(priors, compute_updates(graph, data))
        block = sampler.trimmed_posterior_draws(post, sampler.trim_bound(epsilon), seed, samples)
        draws = {key: row.tolist() for key, row in block.items()}
        keys = sorted(draws)
        lines = ["node,config,draw,theta"]
        for s in range(samples):
            for i, j in keys:
                lines.append(f"{i},{j},{s},{draws[(i, j)][s]!r}")
        _emit(out, "\n".join(lines) + "\n")
        return 0

    raise ConfigError(f"unknown mechanism {name!r}")


def _run_verify(settings: dict) -> int:
    checks = run_verification_suite(_coerce(settings, "seed", int, 20240817))
    ok = all(c["passed"] for c in checks)
    report = {"passed": ok, "checks": checks}
    _emit(str(settings.get("out", "-")), json.dumps(report, indent=2) + "\n")
    return 0 if ok else 2


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad flags; report config errors as 1
        return 0 if exc.code == 0 else 1
    logging.basicConfig(
        level=logging.DEBUG if ns.verbose else logging.INFO,
        stream=sys.stderr,
        format="%(name)s: %(message)s",
    )
    try:
        settings = _merge_settings(ns)
        task = settings.get("task")
        if task is None:
            raise ConfigError("no task given; use --task {nb,linreg,mechanism,verify}")
        if task == "verify":
            return _run_verify(settings)
        if task == "mechanism":
            return _run_mechanism(settings)
        if task in ("nb", "linreg"):
            config = _experiment_config(settings, task)
            result = run_experiment(config)
            write_metrics(result.rows, config.out)
            return 0
        raise ConfigError(f"unknown task {task!r}")
    except ConfigError as exc:
        print(f"dpbayes: config error: {exc}", file=sys.stderr)
        return 1
    except DpBayesError as exc:
        print(f"dpbayes: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"dpbayes: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
