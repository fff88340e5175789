"""Golden outputs: sha256 digests of CLI releases, sweep CSVs and random-DAG releases.

Every release prints Python floats through repr, and the random-DAG
digest hashes the released arrays' bytes, so any change of the
arithmetic, the noise layout or the entry order moves a digest. The
digests were taken with numpy 2.4 and scipy 1.17; a refactor that
claims byte-identical output must leave every one of them in place.
"""
import hashlib
import json

import numpy as np
import pytest

from conftest import random_dag, random_dataset, twenty_node_dag
from dpbayes import fourier, laplace, sampler
from dpbayes.cli import main
from dpbayes.graph import BetaTable, EntryTable, compute_updates, posterior_params, uniform_priors

# 5 nodes: a root, a chain, a v-structure and a node with two parents
# declared out of ascending order
NETWORK = {
    "nodes": 5,
    "parents": [[], [0], [0, 1], [2], [3, 1]],
    "priors": {"default": [1.0, 1.0], "overrides": [[2, 3, 2.0, 0.5], [4, 1, 3.0, 4.0]]},
}

RELEASES = {
    "laplace": ("mechanism=laplace", "epsilon=3", "seed=7"),
    "fourier": ("mechanism=fourier", "epsilon=3", "seed=7"),
    "sampler": ("mechanism=sampler", "epsilon=3", "seed=7", "samples=3"),
    "map": ("mechanism=map", "epsilon=1", "seed=7", "draws=20"),
}

DIGESTS = {
    "laplace": "c7d717acd191b3ee36f9a6cfa1acda0ee62a2072af7aee75c6043e05ea305cba",
    "fourier": "361be0d2a641785a7ed34db44fd1cf8f5345b22aab6ec4d6399f231be1dad877",
    "sampler": "9d27f2227d5e77750b436df94ab34821d81670310b9e44a53602f4051d598636",
    "map": "35209c4875c8fc6296cba89245a85456bc61c48f27a875e7f017f37533d6b968",
    "nb": "42bf968718debcb61f2ae15202bdd65475c63896f3009fdd0ddbb6440bf033e8",
    "linreg": "66232434f8517595b8750bc8a0f8633fcf1db1be0924dfd349c9d054d0dda2ff",
    # 18 of its 24 fourier releases floor their negative cells
    "nb-floored": "ab4064220e01443435f06dc807b202bb1882d6ae20d9b94e12d8cbeb3822d06b",
    "random-dags": "34487aa3c2f6841babec85230da9e2e14c528fb0b58e991b8da2b3a0d424e24a",
    # taken before the seed grids were batched, from the per-release derive_seed loop
    "nb-20": "6a94ebadb1fe2b2d44115108a197874bdc761ff53f298ace3712c64a5226091b",
    "linreg-20": "ce9be3323718ee2bdc110bda5d3aa78225800d249ce195e32d83ab96da76cc5e",
    # all 30 (b, repeat) pairs miss in their first round and redraw from a re-keyed stream
    "linreg-missed": "fd64a5ad5f72cc59bf005e55210781b1b7e825e5abbf9b1a9cf91b0c735ee2f5",
}

# 20 repeats: every seed grid and split batch of these sweeps takes the array path
ARRAY_PATH_SWEEPS = {
    "nb-20": ("--task", "nb", "--repeats", "20", "--sampler-samples", "5"),
    "linreg-20": ("--task", "linreg", "--repeats", "20"),
}

MISSED_DRAW_SWEEP = ("--task", "linreg", "--repeats", "10", "--seed", "5", "--radius", "1.0")

FLOORED_SWEEP = (
    "--task", "nb", "--mechanisms", "fourier", "--fourier-t", "0.01", "--repeats", "4",
    "--d", "3", "--n", "120", "--seed", "0",
)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.fixture
def files(tmp_path):
    rng = np.random.default_rng(20240817)
    (tmp_path / "net.json").write_text(json.dumps(NETWORK))
    np.savetxt(tmp_path / "data.csv", rng.integers(0, 2, size=(60, 5)), fmt="%d", delimiter=",")
    points = rng.normal(size=(40, 2))
    mass = rng.random(40) + 0.5
    np.savetxt(tmp_path / "grid.csv", np.column_stack([points, mass / mass.sum()]), delimiter=",")
    np.savetxt(tmp_path / "utility.csv", -np.sum(points**2, axis=1))
    return tmp_path


@pytest.mark.parametrize("name", sorted(RELEASES))
def test_cli_release_digest(name, files, capsys):
    if name == "map":
        paths = [f"grid={files / 'grid.csv'}", f"utility={files / 'utility.csv'}"]
    else:
        paths = ["--network", str(files / "net.json"), "--dataset", str(files / "data.csv")]
    assert main(["--task", "mechanism", *paths, *RELEASES[name]]) == 0
    assert digest(capsys.readouterr().out) == DIGESTS[name]


@pytest.mark.parametrize("task", ["nb", "linreg"])
def test_sweep_csv_digest(task, capsys):
    assert main(["--task", task, "--repeats", "2"]) == 0
    assert digest(capsys.readouterr().out) == DIGESTS[task]


@pytest.mark.parametrize("name", sorted(ARRAY_PATH_SWEEPS))
def test_array_path_sweep_csv_digest(name, capsys):
    assert main(list(ARRAY_PATH_SWEEPS[name])) == 0
    assert digest(capsys.readouterr().out) == DIGESTS[name]


def test_missed_draw_sweep_csv_digest(capsys):
    assert main(list(MISSED_DRAW_SWEEP)) == 0
    assert digest(capsys.readouterr().out) == DIGESTS["linreg-missed"]


def test_floored_sweep_csv_digest(capsys, caplog):
    with caplog.at_level("INFO", logger="dpbayes.harness"):
        assert main(list(FLOORED_SWEEP)) == 0
    assert "fourier stealth: 18 of 24 releases floored" in caplog.messages
    assert digest(capsys.readouterr().out) == DIGESTS["nb-floored"]


def test_random_dag_release_digest():
    """Fourier and Laplace stacks on a random 8-node and a 20-node DAG.

    Covers floored and unfloored Fourier rows, every node's
    reconstructed marginal of every Fourier row, and trimmed draws from
    the exact and the Fourier posteriors.
    """
    rng = np.random.default_rng(20240817)
    epsilons, seeds = (0.5, 1.0, 3.0, 10.0, 0.5, 3.0), tuple(range(6))
    sha = hashlib.sha256()
    for graph in (random_dag(rng, 8), twenty_node_dag(rng)):
        data = random_dataset(rng, 300, graph.node_count)
        priors = uniform_priors(graph)
        keys = graph.entry_keys()
        z, post, floored = fourier.release_posterior_stack(
            (data,), graph, priors, epsilons, 0.05, (seeds,)
        )
        z, post, floored = z[0], post[0], floored[0]
        assert floored.any() and not floored.all()
        closure = fourier.downward_closure(graph)
        for row in z:
            coeffs = fourier.CoefficientSet(closure, EntryTable(closure.members, row))
            for node in range(graph.node_count):
                cells = fourier.reconstruct_marginal(coeffs, node, graph).cells
                sha.update(repr(sorted(cells.items())).encode())
        updates = compute_updates(graph, data)
        specs = [laplace.LaplaceNoiseSpec.for_graph(graph, eps, data.n) for eps in epsilons]
        truncated, raw = laplace.perturb_update_stack((updates,), specs, (seeds,))
        truncated, raw = truncated[0], raw[0]
        tables = [posterior_params(priors, updates), *(BetaTable(keys, rows) for rows in post)]
        draws = [sampler.trimmed_posterior_draws(table, sampler.trim_bound(3.0), 7, 3).array
                 for table in tables]
        for array in (z, post, floored, truncated, raw, *draws):
            sha.update(np.ascontiguousarray(array).tobytes())
    assert sha.hexdigest() == DIGESTS["random-dags"]
