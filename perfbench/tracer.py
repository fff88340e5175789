"""Outside-in tracing of dpbayes functions for the per-layer breakdown.

Every function in TRACED is rebound, in each dpbayes module namespace
that holds that very object, to a wrapper that counts its calls and
accumulates its self time: the span's wall time minus the wall time of
the wrapped calls it made. Names imported with `from .x import y` are
separate bindings, which is why every namespace is searched.
`restore()` puts the original objects back.
"""
from __future__ import annotations

import importlib
import sys
import time

TRACED = {
    "cli": ("main",),
    "io": ("load_network", "load_dataset", "load_grid"),
    "harness": (
        "run_experiment",
        "synth_nb",
        "synth_linreg",
        "split_dataset",
        "nb_predictive_batch",
    ),
    "graph": ("compute_updates", "posterior_params"),
    "randomness": ("substream", "derive_seed"),
    "laplace": ("perturb_updates",),
    "fourier": (
        "release_coefficients",
        "fourier_coefficient",
        "reconstruct_marginal",
        "fourier_posterior_params",
    ),
    "sampler": (
        "trimmed_beta_draws",
        "trimmed_posterior_sample",
        "sampler_predictive_batch",
    ),
    "expmech": ("exp_mechanism_indices",),
    "regression": ("fit_posterior", "sample_truncated", "predictive_mse"),
}

SPAN_NAMES = tuple(f"{mod}.{fn}" for mod, fns in TRACED.items() for fn in fns)
COUNT_NAMES = (
    "sampler.trimmed_beta_draws.draws",
    "sampler.trimmed_beta_draws.boundary_atoms",
)


class Tracer:
    """Per-function call counts and self times, plus three release counts."""

    def __init__(self) -> None:
        self.calls = dict.fromkeys(SPAN_NAMES, 0)
        self.self_s = dict.fromkeys(SPAN_NAMES, 0.0)
        self.counts = dict.fromkeys(COUNT_NAMES, 0)
        self.accepted_releases = 0
        self._child_time: list[float] = []
        self._saved: list[tuple[object, str, object]] = []

    def _observe(self, name: str, args: tuple, kwargs: dict, result) -> None:
        if name == "sampler.trimmed_beta_draws":
            omega = args[1] if len(args) > 1 else kwargs["omega"]
            self.counts["sampler.trimmed_beta_draws.draws"] += int(result.size)
            self.counts["sampler.trimmed_beta_draws.boundary_atoms"] += int(
                ((result == omega) | (result == 1.0 - omega)).sum()
            )
        elif name == "fourier.fourier_posterior_params":
            clamped = args[3] if len(args) > 3 else kwargs.get("clamp_nonpositive", False)
            if not clamped:
                self.accepted_releases += 1

    def _wrap(self, name: str, fn):
        stack = self._child_time
        clock = time.perf_counter

        def traced(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span = clock() - start
                self.self_s[name] += span - stack.pop()
                self.calls[name] += 1
                if stack:
                    stack[-1] += span
            self._observe(name, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        modules = [m for key, m in list(sys.modules.items())
                   if key == "dpbayes" or key.startswith("dpbayes.")]
        for mod_name, fn_names in TRACED.items():
            home = importlib.import_module(f"dpbayes.{mod_name}")
            for fn_name in fn_names:
                original = getattr(home, fn_name)
                wrapper = self._wrap(f"{mod_name}.{fn_name}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._saved.append((module, attr, original))
                            setattr(module, attr, wrapper)

    def restore(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def metrics(self, ops: int) -> dict[str, dict]:
        """Per-operation figures: totals divided by the number of operations traced."""
        out: dict[str, dict] = {}
        for name in SPAN_NAMES:
            out[f"{name}.calls"] = {"value": self.calls[name] / ops, "unit": "count/op"}
            out[f"{name}.self_s"] = {"value": self.self_s[name] / ops, "unit": "s/op"}
        for name in COUNT_NAMES:
            out[name] = {"value": self.counts[name] / ops, "unit": "count/op"}
        releases = self.calls["fourier.release_coefficients"]
        out["fourier.release_coefficients.accept_ratio"] = {
            "value": self.accepted_releases / releases if releases else 0.0,
            "unit": "ratio",
        }
        return out
