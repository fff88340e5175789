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


def load_traced() -> dict[str, tuple[str, ...]]:
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TRACED


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
