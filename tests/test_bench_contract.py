"""The traced names of perfbench/tracer.py still exist with the arguments it reads.

The per-layer benchmark rebinds every function in tracer.TRACED and
reads two arguments by position; a rename or a signature change would
otherwise only show as a crash of a traced benchmark run.
"""
import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def load_traced() -> dict[str, tuple[str, ...]]:
    return load_tracer().TRACED


def positional_names(fn) -> list[str]:
    kinds = (inspect.Parameter.POSITIONAL_ONLY, inspect.Parameter.POSITIONAL_OR_KEYWORD)
    return [p.name for p in inspect.signature(fn).parameters.values() if p.kind in kinds]


@pytest.mark.parametrize(
    "module, name",
    [(mod, fn) for mod, fns in load_traced().items() for fn in fns],
)
def test_traced_name_resolves(module, name):
    assert callable(getattr(importlib.import_module(f"dpbayes.{module}"), name))


def test_traced_positional_arguments():
    from dpbayes import fourier, sampler

    assert positional_names(sampler.trimmed_beta_draws)[1] == "omega"
    assert positional_names(fourier.fourier_posterior_params)[3] == "clamp_nonpositive"


def test_sampler_release_is_one_traced_draw_call():
    # the tracer counts draws and boundary atoms through trimmed_beta_draws;
    # a release must make one call whose result holds every entry's draws
    import numpy as np

    from dpbayes import BayesNetGraph, BetaParams, sampler

    graph = BayesNetGraph(node_count=3, parents=((), (0,), (0,)))
    posterior = {key: BetaParams(3.0, 30.0) for key in graph.entry_keys()}
    samples = 200
    X = np.array([[0, 0], [0, 1], [1, 0], [1, 1]])
    with load_tracer().Tracer() as tracer:
        sampler.sampler_predictive_batch(graph, posterior, X, 3.0, samples, 5)
    assert tracer.calls["sampler.sampler_predictive_batch"] == 1
    assert tracer.calls["sampler.trimmed_beta_draws"] == 1
    assert tracer.counts["sampler.trimmed_beta_draws.draws"] == len(posterior) * samples
    assert tracer.counts["sampler.trimmed_beta_draws.boundary_atoms"] == 0
