"""Shared helpers for the test suite."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from dpbayes import BayesNetGraph, Dataset


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def perfbench_run():
    """The benchmark script perfbench/run.py, loaded as a module."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "run.py"
    spec = importlib.util.spec_from_file_location("perfbench_run", path)
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    return run


def random_dataset(rng: np.random.Generator, n: int, k: int) -> Dataset:
    return Dataset(rng.integers(0, 2, size=(n, k)).astype(np.int8))


def random_dag(rng: np.random.Generator, k: int, max_indegree: int = 3) -> BayesNetGraph:
    """Random DAG on an ancestral order: parents only among earlier nodes."""
    parents = []
    for i in range(k):
        pool = list(range(i))
        take = int(rng.integers(0, min(max_indegree, len(pool)) + 1))
        chosen = sorted(rng.choice(pool, size=take, replace=False).tolist()) if take else []
        parents.append(tuple(int(p) for p in chosen))
    return BayesNetGraph(node_count=k, parents=tuple(parents))


def twenty_node_dag(rng) -> BayesNetGraph:
    """20 nodes whose parent counts 0..4 each occur four times.

    Nodes are relabelled at random and parents are declared in random
    order, so neither families nor configurations follow node order.
    """
    order = rng.permutation(20)
    parents: list[tuple[int, ...]] = [()] * 20
    for pos, count in enumerate(c for c in range(5) for _ in range(4)):
        chosen = rng.choice(order[:pos], size=count, replace=False) if count else []
        parents[int(order[pos])] = tuple(int(p) for p in chosen)
    return BayesNetGraph(node_count=20, parents=tuple(parents))


CHAIN3 = BayesNetGraph(node_count=3, parents=((), (0,), (1,)))
SINGLE = BayesNetGraph(node_count=1, parents=((),))
