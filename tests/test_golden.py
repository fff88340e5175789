"""Golden outputs: sha256 digests of CLI releases, sweep CSVs and random-DAG releases.

Every release prints Python floats through repr, and the random-DAG
digest hashes the released arrays' bytes, so any change of the
arithmetic, the noise layout or the entry order moves a digest. The
digests were taken with numpy 2.4 and scipy 1.17; a refactor that
claims byte-identical output must leave every one of them in place.

Beside each whole-output digest of a sweep or of the random DAGs sits
one digest per mechanism, so a change that moves one mechanism's
outputs shows which mechanisms stayed put.
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

# per sweep, one digest per mechanism: the CSV header and that mechanism's rows
SWEEP_MECHANISM_DIGESTS = {
    "nb": {
        "none": "4268fd3729d040df060c6e5f2439f99f7d995051cd86122d4160c59a0e0bfef1",
        "laplace": "1f00fafe3c13e10fc033bfc8af511f1ce0b6e951cc9d9a58dee1dc931aa7812d",
        "fourier": "1ccb30f0444c30784b531e562a4fe4a7b76d993f2094ac46e651b73ad593c0b3",
        "sampler": "4acde278ad3a078c7e0d7463d04f4166dc7d97a5fec8f72e811efe791016a2ca",
    },
    "nb-20": {
        "none": "61011a2508dae354e802efdfb28358d46760cfdacfcac6f91a7c316cbbf5d42c",
        "laplace": "bade5de8187ce799f612e3099289b732de1df3422518eb1bed24fb1efa746bc9",
        "fourier": "4734d5c475aea53fbe803c3d269e8e7b4a95b1dbf840369ee9d07087e4584a00",
        "sampler": "ecda75fa6a02a75b9bafc9e9cef81f0e40231afeac8c748cb68ca3ef99512436",
    },
    "linreg": {
        "none": "90a978862ccd7b44fc3df92bfdc82f732d451471f622f1069c4f3a095eda671b",
        "sampler": "4aca8afb03fe3b1f4e1249494075e2be5c753f83510a0c59e4cda2f3a340ac1d",
    },
    "linreg-20": {
        "none": "a7bcf38d1d3388cf722f690f4d9a2e074ac1b449bc7140337bd7d2c5aac635ba",
        "sampler": "606ea6828c634b24ea3076c9a2fa7737a7eab3e5ca0b3653c430df24e8ce5dea",
    },
}

# the random-DAG releases, one digest per mechanism; the sampler's hashes the
# draws from the exact posteriors, and only "random-dags" those from the Fourier ones
RANDOM_DAG_MECHANISM_DIGESTS = {
    "laplace": "a16faa202514f78c22cebffeaffc7a75fea055a4c2090474ae38b1f3bb429a0d",
    "fourier": "99504e2eeda19dbbe0b4ca66ef0b7866dea55228d26af2f4d484e2ca1b6bdcc9",
    "sampler": "9323b02cf3a6d4b918a77ce2a546f33e15feab95087a86d47b83d87706584e92",
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


def mechanism_digests(csv: str) -> dict[str, str]:
    """Per mechanism of a sweep CSV, the digest of its header and that mechanism's rows."""
    header, *lines = csv.splitlines(keepends=True)
    mechanisms = dict.fromkeys(line.split(",", 1)[0] for line in lines)
    return {
        mech: digest(header + "".join(line for line in lines if line.startswith(f"{mech},")))
        for mech in mechanisms
    }


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
    out = capsys.readouterr().out
    assert mechanism_digests(out) == SWEEP_MECHANISM_DIGESTS[task]
    assert digest(out) == DIGESTS[task]


@pytest.mark.parametrize("name", sorted(ARRAY_PATH_SWEEPS))
def test_array_path_sweep_csv_digest(name, capsys):
    assert main(list(ARRAY_PATH_SWEEPS[name])) == 0
    out = capsys.readouterr().out
    assert mechanism_digests(out) == SWEEP_MECHANISM_DIGESTS[name]
    assert digest(out) == DIGESTS[name]


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
    the exact and the Fourier posteriors. Beside the digest of all of
    them, each mechanism's releases have their own.
    """
    rng = np.random.default_rng(20240817)
    epsilons, seeds = (0.5, 1.0, 3.0, 10.0, 0.5, 3.0), tuple(range(6))
    sha = hashlib.sha256()
    per_mechanism = {mech: hashlib.sha256() for mech in RANDOM_DAG_MECHANISM_DIGESTS}
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
                marginal = repr(sorted(cells.items())).encode()
                sha.update(marginal)
                per_mechanism["fourier"].update(marginal)
        updates = compute_updates(graph, data)
        specs = [laplace.LaplaceNoiseSpec.for_graph(graph, eps, data.n) for eps in epsilons]
        truncated, raw = laplace.perturb_update_stack((updates,), specs, (seeds,))
        truncated, raw = truncated[0], raw[0]
        tables = [posterior_params(priors, updates), *(BetaTable(keys, rows) for rows in post)]
        draws = [sampler.trimmed_posterior_draws(table, sampler.trim_bound(3.0), 7, 3).array
                 for table in tables]
        for array in (z, post, floored, truncated, raw, *draws):
            sha.update(np.ascontiguousarray(array).tobytes())
        for mech, arrays in (
            ("fourier", (z, post, floored)), ("laplace", (truncated, raw)), ("sampler", draws[:1])
        ):
            for array in arrays:
                per_mechanism[mech].update(np.ascontiguousarray(array).tobytes())
    got = {mech: h.hexdigest() for mech, h in per_mechanism.items()}
    assert got == RANDOM_DAG_MECHANISM_DIGESTS
    assert sha.hexdigest() == DIGESTS["random-dags"]
