"""File loaders and the command-line entry point."""
import dataclasses
import importlib.util
import json
import re
import types
import typing
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dpbayes.cli
import dpbayes.expmech
import dpbayes.fourier
import dpbayes.io

from dpbayes import (
    BetaParams,
    ConfigError,
    Dataset,
    ExperimentConfig,
    ExperimentResult,
    LaplaceNoiseSpec,
    MapSensitivity,
    compute_updates,
    load_dataset,
    load_grid,
    load_network,
    load_regression_csv,
    posterior_params,
    trim_bound,
)
from dpbayes.cli import main
from dpbayes.sampler import trimmed_posterior_draws

from conftest import perfbench_run

# ---------------------------------------------------------------------------
# network files
# ---------------------------------------------------------------------------

NETWORK = {
    "nodes": 3,
    "parents": [[], [0], [0]],
    "priors": {"default": [1.0, 1.0], "overrides": [[1, 0, 2.0, 3.0]]},
}


def write_network(tmp_path, spec=NETWORK, name="net.json"):
    path = tmp_path / name
    path.write_text(json.dumps(spec))
    return path


def test_load_network_round_trip(tmp_path):
    graph, priors = load_network(write_network(tmp_path))
    assert graph.node_count == 3
    assert graph.parents == ((), (0,), (0,))
    assert priors[(1, 0)].alpha == 2.0 and priors[(1, 0)].beta == 3.0
    # everything else keeps the default
    assert priors[(0, 0)].alpha == 1.0
    assert priors[(2, 1)].beta == 1.0
    assert set(priors) == set(graph.entry_keys())


def test_load_network_reads_integer_prior_parameters_as_numbers(tmp_path):
    spec = {**NETWORK, "priors": {"default": [1, 2], "overrides": [[1, 0, 2, 3]]}}
    _, priors = load_network(write_network(tmp_path, spec))
    assert priors[(0, 0)] == BetaParams(1.0, 2.0) and priors[(1, 0)] == BetaParams(2.0, 3.0)


def test_load_network_bad_json(tmp_path):
    path = tmp_path / "net.json"
    path.write_text("{nope")
    with pytest.raises(ConfigError):
        load_network(path)


def test_load_network_missing_file(tmp_path):
    with pytest.raises(ConfigError):
        load_network(tmp_path / "absent.json")


def test_load_network_parent_count_mismatch(tmp_path):
    bad = {"nodes": 3, "parents": [[], [0]]}
    with pytest.raises(ConfigError):
        load_network(write_network(tmp_path, bad))


def test_load_network_override_nonexistent_entry(tmp_path):
    bad = dict(NETWORK)
    bad["priors"] = {"overrides": [[0, 1, 2.0, 2.0]]}  # node 0 has no parents
    with pytest.raises(ConfigError, match="nonexistent"):
        load_network(write_network(tmp_path, bad))


def test_load_network_bad_default_prior(tmp_path):
    bad = dict(NETWORK)
    bad["priors"] = {"default": [1.0]}
    with pytest.raises(ConfigError):
        load_network(write_network(tmp_path, bad))


@pytest.mark.parametrize(
    "spec",
    [
        {"nodes": 2, "parents": [[], [5]]},
        {"nodes": 0, "parents": []},
        {"nodes": 2, "parents": [[], [0]], "priors": {"overrides": [[1, 0, -1.0, 2.0]]}},
        {"nodes": 2, "parents": [[], [0]], "priors": []},
        {"nodes": 2, "parents": [[], [0]], "priors": None},
        {"nodes": 2, "parents": [[], [0]], "priors": {"overrides": 5}},
        # int() would truncate or misread each of these into a valid network
        {"nodes": 2.7, "parents": [[], [0]]},
        {"nodes": 2, "parents": [[], [0.9]]},
        {"nodes": 3, "parents": [[], [], "10"]},
        {"nodes": 2, "parents": [[], [0]], "priors": {"overrides": [[1.6, 0, 2.0, 3.0]]}},
        {"nodes": True, "parents": [[]]},
        # float() would read each of these into a valid prior
        {"nodes": 2, "parents": [[], [0]], "priors": {"default": [True, "2.5"]}},
        {"nodes": 2, "parents": [[], [0]], "priors": {"overrides": [[1, 0, "2.0", 3.0]]}},
        {"nodes": 2, "parents": [[1], [0]]},
        # a misspelled key or a long prior row would be dropped, leaving the default prior
        {"nodes": 2, "parents": [[], [0]], "prior": {"default": [5.0, 5.0]}},
        {"nodes": 2, "parents": [[], [0]], "priors": {"defaults": [5.0, 5.0]}},
        {"nodes": 2, "parents": [[], [0]], "priors": {"default": [1.0, 1.0, 99]}},
        {"nodes": 2, "parents": [[], [0]], "priors": {"overrides": [[1, 0, 2.0, 3.0, 7]]}},
        {"nodes": 2, "parents": [[], [0]], "priors": {"overrides": [[1, 0, 2.0]]}},
        # a second override of one entry would replace the first without a word
        {"nodes": 2, "parents": [[], [0]],
         "priors": {"overrides": [[1, 0, 2.0, 3.0], [1, 0, 5.0, 5.0]]}},
    ],
    ids=[
        "parent-out-of-range", "no-nodes", "negative-override",
        "priors-list", "priors-null", "overrides-number",
        "float-node-count", "float-parent", "string-parent-row", "float-override-node",
        "bool-node-count", "bool-and-string-default-prior", "string-override-prior",
        "cycle", "prior-key", "priors-defaults-key", "long-default-prior", "long-override",
        "short-override", "duplicate-override",
    ],
)
def test_cli_bad_network_is_config_error(tmp_path, capsys, spec):
    net = write_network(tmp_path, spec)
    width = int(spec["nodes"])  # the width a truncating reader expects
    data = write_binary_csv(tmp_path, [(0,) * width, (1,) * width])
    args = ["--task", "mechanism", "--network", str(net), "--dataset", str(data),
            "mechanism=laplace", "epsilon=1", "seed=1"]
    assert main(args) == 1
    err = capsys.readouterr().err
    assert err.startswith("dpbayes: config error:") and str(net) in err


def test_cli_network_not_utf8_is_config_error(tmp_path, capsys):
    net = tmp_path / "net.json"
    net.write_bytes(json.dumps(NETWORK).encode() + b"\xff")
    data = write_binary_csv(tmp_path, [(0, 1, 1), (1, 0, 0)])
    args = ["--task", "mechanism", "--network", str(net), "--dataset", str(data),
            "mechanism=laplace", "epsilon=1", "seed=1"]
    assert main(args) == 1
    err = capsys.readouterr().err
    assert err.startswith("dpbayes: config error:") and str(net) in err


def test_load_network_cycle_rejected(tmp_path):
    path = write_network(tmp_path, {"nodes": 2, "parents": [[1], [0]]})
    with pytest.raises(ConfigError, match=f"{re.escape(str(path))}: .*cycle through nodes"):
        load_network(path)


# ---------------------------------------------------------------------------
# dataset / regression / grid files
# ---------------------------------------------------------------------------


def test_load_dataset_parses_binary_csv(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("0,1,1\n1,0,0\n\n0,0,1\n")
    data = load_dataset(path)
    assert data.n == 3 and data.dimension == 3
    assert data.records[1].tolist() == [1, 0, 0]


def test_load_dataset_reports_line_number(tmp_path):
    path = tmp_path / "data.csv"
    for bad in ("x", "0.5", "1.0", "1.9", "1e0"):
        path.write_text(f"0,1\n0,{bad}\n")
        with pytest.raises(ConfigError, match=":2: non-integer cell"):
            load_dataset(path)


def test_load_dataset_line_number_counts_blank_lines(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("0,1\n\n0,x\n")
    with pytest.raises(ConfigError, match=":3:"):
        load_dataset(path)


def test_load_dataset_rejects_ragged_rows(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("0,1\n1,0,1\n0,0\n")
    with pytest.raises(ConfigError):
        load_dataset(path)


def test_load_dataset_rejects_nonbinary_values(tmp_path):
    path = tmp_path / "data.csv"
    for text in ("0,2\n", "0,1\n300,0\n"):
        path.write_text(text)
        with pytest.raises(ConfigError, match="0/1"):
            load_dataset(path)


def test_load_dataset_empty_file(tmp_path):
    path = tmp_path / "data.csv"
    for text in ("", "\n\n"):
        path.write_text(text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConfigError, match="empty"):
                load_dataset(path)


def test_load_dataset_canonical_file_skips_loadtxt(tmp_path, monkeypatch):
    records = np.random.default_rng(3).integers(0, 2, size=(50, 7))
    path = tmp_path / "data.csv"
    np.savetxt(path, records, fmt="%d", delimiter=",")

    def no_loadtxt(*args, **kwargs):
        raise AssertionError("canonical file went through np.loadtxt")

    monkeypatch.setattr(dpbayes.io.np, "loadtxt", no_loadtxt)
    assert np.array_equal(load_dataset(path).records, records)


# the canonical spelling, and near misses of it: one byte swapped for another
DATASET_ALPHABET = '01,\n\r "+-2x.'
_canonical_text = st.integers(1, 5).flatmap(
    lambda k: st.lists(
        st.lists(st.sampled_from("01"), min_size=k, max_size=k), min_size=1, max_size=6
    )
).map(lambda rows: "".join(",".join(row) + "\n" for row in rows))
_mutated_text = st.tuples(
    _canonical_text, st.integers(0, 1000), st.sampled_from(DATASET_ALPHABET)
).map(lambda t: t[0][: t[1] % len(t[0])] + t[2] + t[0][t[1] % len(t[0]) + 1 :])


@settings(max_examples=200, deadline=None)
@given(st.one_of(st.text(DATASET_ALPHABET, max_size=40), _canonical_text, _mutated_text))
def test_canonical_reader_agrees_with_loadtxt(text):
    got = dpbayes.io._canonical_records(text.encode())
    lines = text.split("\n")[:-1]
    canonical = (
        text.endswith("\n")
        and len({len(line) for line in lines}) == 1
        and all(re.fullmatch("[01](,[01])*", line) for line in lines)
    )
    assert (got is not None) == canonical
    if got is None:
        return
    want = np.loadtxt(
        [line for line in text.splitlines() if line],
        delimiter=",", dtype=np.int64, ndmin=2, comments=None, quotechar='"',
    )
    assert ((want == 0) | (want == 1)).all()
    assert got.shape == want.shape and np.array_equal(got, want)


def test_load_regression_csv_splits_target(tmp_path):
    path = tmp_path / "reg.csv"
    path.write_text("1.0,2.0,3.0\n4.0,5.0,6.0\n")
    X, y = load_regression_csv(path)
    assert X.shape == (2, 2)
    assert np.array_equal(y, [3.0, 6.0])


def test_load_regression_csv_needs_two_columns(tmp_path):
    path = tmp_path / "reg.csv"
    path.write_text("1.0\n2.0\n")
    with pytest.raises(ConfigError):
        load_regression_csv(path)


@pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
def test_load_regression_csv_rejects_non_finite(tmp_path, cell):
    path = tmp_path / "reg.csv"
    path.write_text(f"0.1,0.2,0.3\n{cell},0.5,0.6\n")
    with pytest.raises(ConfigError, match=f"regression data {re.escape(str(path))} holds a non-finite"):
        load_regression_csv(path)


def test_cli_linreg_non_finite_dataset_exits_1(tmp_path, capsys):
    path = tmp_path / "reg.csv"
    path.write_text("0.1,0.2,0.3\nnan,0.5,0.6\n0.3,0.1,0.2\n")
    args = ["--task", "linreg", "--dataset", str(path), "--repeats", "1", "--b-grid", "1"]
    assert main(args) == 1
    err = capsys.readouterr().err
    assert err.startswith("dpbayes: config error:") and f"regression data {path}" in err


@pytest.mark.parametrize("task", ["nb", "linreg"])
def test_cli_one_record_dataset_exits_1(tmp_path, capsys, task):
    path = tmp_path / "one.csv"
    path.write_text("1,0,1\n")
    assert main(["--task", task, "--dataset", str(path), "--repeats", "1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "dpbayes: a train/test split needs at least 2 records, got 1\n"


def test_load_grid_round_trip(tmp_path):
    path = tmp_path / "grid.csv"
    path.write_text("0.1,0.2,0.25\n0.3,0.4,0.75\n")
    grid = load_grid(path)
    assert grid.points.tolist() == [[0.1, 0.2], [0.3, 0.4]]
    assert grid.prior_mass.tolist() == [0.25, 0.75]


def test_load_grid_rejects_unnormalized_mass(tmp_path):
    path = tmp_path / "grid.csv"
    path.write_text("0.1,0.9\n0.3,0.9\n")
    with pytest.raises(ConfigError):
        load_grid(path)


def test_load_grid_needs_mass_column(tmp_path):
    path = tmp_path / "grid.csv"
    path.write_text("1.0\n")
    with pytest.raises(ConfigError):
        load_grid(path)


@pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
def test_load_grid_rejects_non_finite(tmp_path, cell):
    path = tmp_path / "grid.csv"
    for text in (f"0.2,0.5\n{cell},0.5\n", f"0.2,0.5\n0.8,{cell}\n"):
        path.write_text(text)
        with pytest.raises(ConfigError, match=f"grid file {re.escape(str(path))} holds a non-finite"):
            load_grid(path)


def test_cli_map_non_finite_grid_exits_1(tmp_path, capsys):
    grid = tmp_path / "grid.csv"
    grid.write_text("0.2,0.5\nnan,0.5\n")
    args = ["--task", "mechanism", "mechanism=map", "epsilon=1", "draws=2", "--grid", str(grid)]
    assert main(args) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and f"grid file {grid}" in captured.err


# ---------------------------------------------------------------------------
# CLI: experiment tasks
# ---------------------------------------------------------------------------

NB_ARGS = [
    "--task", "nb",
    "--mechanisms", "none,laplace",
    "--epsilon-grid", "1,5",
    "--repeats", "2",
    "--seed", "11",
    "--train-frac", "0.3",
    "--d", "2",
    "--n", "40",
]


def test_cli_requires_task(capsys):
    assert main([]) == 1
    assert "task" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flag, token, line",
    [
        (["--task", "nb", "--repeats", "many"], ["--task", "nb", "repeats=many"],
         "dpbayes: config error: bad value for repeats:"),
        (["--task", "nb", "--train-frac", "half"], ["--task", "nb", "train_fraction=half"],
         "dpbayes: config error: bad value for train_fraction:"),
        (["--task", "tarot"], ["task=tarot"], "dpbayes: config error: unknown task 'tarot'"),
        # a left-out list item is refused, not skipped
        (["--task", "nb", "--epsilon-grid", "1,,2"], ["--task", "nb", "epsilon_grid=1,,2"],
         "dpbayes: config error: bad value for epsilon_grid: '1,,2' ("),
        (["--task", "nb", "--mechanisms", "none,,laplace"],
         ["--task", "nb", "mechanisms=none,,laplace"],
         "dpbayes: config error: bad value for mechanisms: 'none,,laplace' ("),
    ],
    ids=["repeats", "train-fraction", "task", "epsilon-grid", "mechanisms"],
)
def test_cli_bad_flag_maps_to_config_error_code(tmp_path, capsys, flag, token, line):
    # a bad value gets one report, whether it comes as a flag, a key=value
    # token or a config file's string
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(dict(arg.split("=", 1) for arg in token if "=" in arg)))
    from_file = [*(arg for arg in token if "=" not in arg), "--config", str(cfg)]
    reports = []
    for args in (flag, token, from_file):
        assert main(args) == 1
        reports.append(capsys.readouterr().err)
    assert reports[0] == reports[1] == reports[2]
    assert reports[0].startswith(line) and reports[0].count("\n") == 1


def test_cli_nb_stdout_csv(capsys):
    assert main(NB_ARGS) == 0
    out = capsys.readouterr().out
    lines = out.strip().split("\n")
    assert lines[0] == "mechanism,param,repeat,metric,value"
    # 2 mechanisms x 2 grid points x 2 repeats
    assert len(lines) == 1 + 8
    assert all(line.split(",")[3] == "accuracy" for line in lines[1:])


def test_cli_out_file_and_byte_identical_reruns(tmp_path):
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    assert main(NB_ARGS + ["--out", str(out_a)]) == 0
    assert main(NB_ARGS + ["--out", str(out_b)]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()


def test_cli_sweeps_run_the_library_default_configs(monkeypatch, capsys):
    # one default per setting: the CLI adds none of its own to a sweep
    seen = []
    monkeypatch.setattr(
        dpbayes.cli, "run_experiment", lambda config: seen.append(config) or ExperimentResult([])
    )
    assert main(["--task", "nb"]) == 0
    assert main(["--task", "linreg"]) == 0
    assert seen == [ExperimentConfig(task="nb"), ExperimentConfig(task="linreg")]
    assert (seen[1].d, seen[1].n) == (5, 2000)


def test_cli_settings_table_matches_experiment_config():
    # a sweep passes the settings it read straight to ExperimentConfig, so the
    # rows the sweeps read are its fields, each of the field's own type
    rows = dpbayes.cli._SETTINGS
    hints = typing.get_type_hints(ExperimentConfig)
    fields = {field.name for field in dataclasses.fields(ExperimentConfig)} - {"theta"}
    swept = {key for key, row in rows.items() if {"nb", "linreg"} & set(row.readers)}
    assert swept - {"out"} == fields
    for name in fields:
        hint = hints[name]
        # X | None: the config fills in a None itself
        if typing.get_origin(hint) in (typing.Union, types.UnionType):
            (hint,) = set(typing.get_args(hint)) - {type(None)}
        assert rows[name].kind == hint, name


def test_cli_linreg_task(tmp_path):
    out = tmp_path / "reg.csv"
    code = main(
        [
            "--task", "linreg",
            "--mechanisms", "none,sampler",
            "--b-grid", "0.5,5",
            "--repeats", "2",
            "--seed", "3",
            "--train-frac", "0.2",
            "--d", "2",
            "--n", "60",
            "--regression-samples", "20",
            "--out", str(out),
        ]
    )
    assert code == 0
    lines = out.read_text().strip().split("\n")
    assert len(lines) == 1 + 2 * 2 * 2
    assert all(line.split(",")[3] == "mse" for line in lines[1:])


def test_cli_json_config_file(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "task": "nb",
        "mechanisms": "none",
        "epsilon_grid": [1.0],
        "repeats": 3,
        "seed": 5,
        "train_fraction": 0.3,
        "d": 2,
        "n": 40,
    }))
    assert main(["--config", str(cfg)]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert len(lines) == 1 + 3


NB_CONFIG = {
    "task": "nb", "mechanisms": "none", "epsilon_grid": [1.0], "repeats": 1, "seed": 5,
    "train_fraction": 0.3, "d": 2, "n": 40,
}


@pytest.mark.parametrize(
    "base, key, value",
    [
        ("nb", "repeats", 1.9), ("nb", "d", 2.5), ("nb", "n", 40.7), ("nb", "seed", 7.8),
        ("sampler", "samples", 2.9), ("sampler", "seed", 7.8), ("map", "draws", 2.5),
        ("nb", "repeats", True), ("sampler", "samples", True),
    ],
)
def test_cli_config_file_integer_settings_refuse_floats(tmp_path, capsys, base, key, value):
    # int() would truncate each float, or read true as 1, and run; the integer alone runs
    grid = tmp_path / "grid.csv"
    grid.write_text("0.0,0.5\n1.0,0.5\n")
    release = {"task": "mechanism", "epsilon": 3.0, "seed": 7}
    config = {
        "nb": NB_CONFIG,
        "sampler": {**release, "mechanism": "sampler", "network": str(write_network(tmp_path)),
                    "dataset": str(write_binary_csv(tmp_path, [(0, 1, 1), (1, 0, 0)]))},
        "map": {**release, "mechanism": "map", "grid": str(grid)},
    }[base]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**config, key: value}))
    assert main(["--config", str(cfg)]) == 1
    assert capsys.readouterr().err.startswith(f"dpbayes: config error: bad value for {key}:")
    cfg.write_text(json.dumps({**config, key: int(value)}))
    assert main(["--config", str(cfg)]) == 0


@pytest.mark.parametrize(
    "base, key, value",
    [
        ("nb", "epsilon_grid", [True, 2]), ("nb", "threshold", True), ("nb", "fourier_t", False),
        ("nb", "out", True), ("nb", "dataset", 5), ("nb", "mechanisms", 5),
        ("sampler", "epsilon", True), ("sampler", "network", 5), ("sampler", "out", 1.0),
        ("map", "grid", True), ("map", "utility", True), ("map", "delta", True),
    ],
)
def test_cli_config_file_refuses_booleans_and_non_strings(
    tmp_path, capsys, monkeypatch, base, key, value
):
    # float() read true as 1.0 and str() turned it into the path "True"; both ran
    monkeypatch.chdir(tmp_path)
    grid = tmp_path / "grid.csv"
    grid.write_text("0.0,0.5\n1.0,0.5\n")
    release = {"task": "mechanism", "epsilon": 3.0, "seed": 7}
    config = {
        "nb": NB_CONFIG,
        "sampler": {**release, "mechanism": "sampler", "network": str(write_network(tmp_path)),
                    "dataset": str(write_binary_csv(tmp_path, [(0, 1, 1), (1, 0, 0)]))},
        "map": {**release, "mechanism": "map", "grid": str(grid)},
    }[base]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**config, key: value}))
    assert main(["--config", str(cfg)]) == 1
    assert capsys.readouterr().err.startswith(f"dpbayes: config error: bad value for {key}:")
    assert {p.name for p in tmp_path.iterdir()} == {"cfg.json", "grid.csv", "net.json", "data.csv"}


def test_cli_string_settings_still_parse_numbers(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**NB_CONFIG, "epsilon_grid": "1,2", "threshold": "1"}))
    assert main(["--config", str(cfg), "fourier_t=0.5", "--out", str(tmp_path / "out.csv")]) == 0
    lines = (tmp_path / "out.csv").read_text().splitlines()
    assert [line.split(",")[1] for line in lines[1:]] == ["1.0", "2.0"]


def test_cli_bad_json_config(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("{broken")
    assert main(["--config", str(cfg), "--task", "nb"]) == 1


@pytest.mark.parametrize("name, text", [("cfg.json", b'{"task": "nb"}'), ("cfg.toml", b'task = "nb"')])
def test_cli_config_file_not_utf8_is_config_error(tmp_path, capsys, name, text):
    cfg = tmp_path / name
    cfg.write_bytes(text + b"\n# \xff\n")
    assert main(["--config", str(cfg)]) == 1
    assert capsys.readouterr().err.startswith("dpbayes: config error:")


def test_cli_toml_config(tmp_path, capsys):
    cfg = tmp_path / "cfg.toml"
    cfg.write_text(
        'task = "nb"\nmechanisms = "none"\nepsilon_grid = [1.0]\n'
        "repeats = 2\nseed = 5\ntrain_fraction = 0.3\nd = 2\nn = 40\n"
    )
    code = main(["--config", str(cfg)])
    if importlib.util.find_spec("tomllib") is None:
        assert code == 1
        assert "TOML" in capsys.readouterr().err
    else:
        assert code == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert len(lines) == 1 + 2


def test_cli_precedence_flag_over_pair_over_file(tmp_path, capsys):
    # file says 4 repeats, pair says 3, flag says 2; flag wins
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "task": "nb",
        "mechanisms": "none",
        "epsilon_grid": [1.0],
        "repeats": 4,
        "seed": 5,
        "train_fraction": 0.3,
        "d": 2,
        "n": 40,
    }))
    assert main(["--config", str(cfg), "repeats=3"]) == 0
    assert len(capsys.readouterr().out.strip().split("\n")) == 1 + 3
    assert main(["--config", str(cfg), "repeats=3", "--repeats", "2"]) == 0
    assert len(capsys.readouterr().out.strip().split("\n")) == 1 + 2


def test_cli_malformed_pair(capsys):
    assert main(["--task", "nb", "repeats"]) == 1
    assert "key=value" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# CLI: mechanism task
# ---------------------------------------------------------------------------


def write_binary_csv(tmp_path, rows, name="data.csv"):
    path = tmp_path / name
    path.write_text("\n".join(",".join(str(v) for v in row) for row in rows) + "\n")
    return path


MECH_DATA = [(0, 1, 1), (1, 0, 0), (1, 1, 0), (0, 0, 1)]


def mech_args(tmp_path, *pairs):
    net = write_network(tmp_path)
    data = write_binary_csv(tmp_path, MECH_DATA)
    return ["--task", "mechanism", "--network", str(net), "--dataset", str(data), *pairs]


def test_cli_key_value_pairs_between_flags(tmp_path, capsys):
    net, data = str(write_network(tmp_path)), str(write_binary_csv(tmp_path, MECH_DATA))
    ordered = [
        "--task", "mechanism", "--network", net, "--dataset", data,
        "mechanism=laplace", "epsilon=1", "seed=7",
    ]
    interleaved = [
        "--task", "mechanism", "mechanism=laplace", "--network", net,
        "epsilon=1", "--dataset", data, "seed=7",
    ]
    assert main(ordered) == 0
    expected = capsys.readouterr()
    assert main(interleaved) == 0
    assert capsys.readouterr() == expected


def test_cli_mechanism_needs_name(tmp_path, capsys):
    assert main(["--task", "mechanism"]) == 1
    assert "mechanism" in capsys.readouterr().err


def test_cli_mechanism_needs_epsilon(tmp_path, capsys):
    assert main(mech_args(tmp_path, "mechanism=laplace", "seed=1")) == 1
    assert "epsilon" in capsys.readouterr().err


def test_cli_mechanism_unknown_name(tmp_path, capsys):
    assert main(mech_args(tmp_path, "mechanism=teleport", "epsilon=1", "seed=1")) == 1
    assert capsys.readouterr().err == "dpbayes: config error: unknown mechanism 'teleport'\n"
    # the name is refused before the files are read, so a dataset of the wrong width
    # does not hide it
    args = mech_args(tmp_path, "mechanism=teleport", "epsilon=1")
    write_binary_csv(tmp_path, [(0, 1), (1, 0)])
    assert main(args) == 1
    assert capsys.readouterr().err == "dpbayes: config error: unknown mechanism 'teleport'\n"


def test_cli_laplace_emission(tmp_path, capsys):
    assert main(mech_args(tmp_path, "mechanism=laplace", "epsilon=1", "seed=7")) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == "node,config,z1,z2"
    # 3-node network with parents ((), (0,), (0,)): 1 + 2 + 2 entries
    assert len(lines) == 1 + 5
    first = lines[1].split(",")
    assert first[0] == "0" and first[1] == "0"
    float(first[2]), float(first[3])


def test_cli_laplace_deterministic(tmp_path, capsys):
    args = mech_args(tmp_path, "mechanism=laplace", "epsilon=1", "seed=7")
    assert main(args) == 0
    first = capsys.readouterr().out
    assert main(args) == 0
    assert capsys.readouterr().out == first


def test_cli_fourier_emission(tmp_path, capsys):
    args = mech_args(tmp_path, "mechanism=fourier", "epsilon=2", "t=2.302585", "seed=3")
    assert main(args) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == "section,key1,key2,value"
    coeff = [l for l in lines[1:] if l.startswith("coefficient,")]
    post = [l for l in lines[1:] if l.startswith("posterior,")]
    # closure of the 3-node tree has 2*2+2 = 6 members; 5 posterior entries
    assert len(coeff) == 6
    assert len(post) == 5
    assert coeff[0].split(",")[1].startswith("0x")
    alpha, beta = post[0].split(",")[3].split(";")
    assert float(alpha) > 0 and float(beta) > 0


def test_cli_unknown_setting_is_config_error(tmp_path, capsys):
    args = mech_args(tmp_path, "mechanism=fourier", "epsilon=2", "retries=3")
    assert main(args) == 1
    assert "unknown setting 'retries'" in capsys.readouterr().err
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"task": "nb", "mechanisms": "none", "repeat": 3}))
    assert main(["--config", str(cfg)]) == 1
    assert "unknown setting 'repeat'" in capsys.readouterr().err
    # a setting another task reads: epsilon= is the mechanism task's, and
    # the nb sweep would silently run its default epsilon grid instead
    args = ["--task", "nb", "epsilon=3", "--repeats", "1", "--d", "2", "--n", "40",
            "--mechanisms", "none"]
    assert main(args) == 1
    assert "unknown setting 'epsilon' for task 'nb'" in capsys.readouterr().err
    cfg.write_text(json.dumps({"task": "linreg", "threshold": 0.4}))
    assert main(["--config", str(cfg)]) == 1
    assert "unknown setting 'threshold' for task 'linreg'" in capsys.readouterr().err


@pytest.mark.parametrize(
    "task, generator, unread",
    [
        ("nb", ["--d", "40", "--n", "9999"], "'d', 'n'"),
        ("nb", ["n=9999"], "'n'"),
        ("linreg", ["--noise-sigma", "3"], "'noise_sigma'"),
    ],
)
def test_cli_sweep_with_a_dataset_refuses_generator_settings(
    tmp_path, capsys, task, generator, unread
):
    # the dataset replaces the generated data, so these settings would go unread
    path = tmp_path / "data.csv"
    if task == "nb":
        write_binary_csv(tmp_path, [(0, 1), (1, 0), (1, 1), (0, 0)] * 3, "data.csv")
        base = ["--task", "nb", "--mechanisms", "none", "--epsilon-grid", "1"]
    else:
        path.write_text("".join(f"{i / 10},{(i * 7 % 5) / 10}\n" for i in range(12)))
        base = ["--task", "linreg", "--b-grid", "1"]
    args = [*base, "--repeats", "2", "--train-frac", "0.5", "--dataset", str(path)]
    assert main(args) == 0
    capsys.readouterr()
    assert main([*args, *generator]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"dpbayes: config error: unknown setting {unread} for task {task!r} with a dataset\n"
    )


def release_args(tmp_path, mechanism):
    """Valid mechanism-task arguments for one release of `mechanism`."""
    if mechanism != "map":
        return mech_args(tmp_path, f"mechanism={mechanism}", "epsilon=3", "seed=2")
    grid = tmp_path / "grid.csv"
    grid.write_text("0.2,0.5\n0.8,0.5\n")
    return ["--task", "mechanism", "mechanism=map", "epsilon=3", "--grid", str(grid)]


@pytest.mark.parametrize(
    "mechanism, foreign",
    [("laplace", "t=2"), ("fourier", "samples=3"), ("sampler", "draws=4"), ("map", "t=2")],
)
def test_cli_rejects_another_mechanisms_setting(tmp_path, capsys, mechanism, foreign):
    args = release_args(tmp_path, mechanism)
    assert main(args) == 0
    capsys.readouterr()
    at = args.index(f"mechanism={mechanism}")
    assert main([*args[:at], foreign, *args[at:]]) == 1
    key = foreign.split("=")[0]
    assert f"unknown setting {key!r} for mechanism {mechanism!r}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "mechanism, setting, expect",
    [
        *[
            (m, f"epsilon={e}", "epsilon must be")
            for m in ("laplace", "fourier", "sampler")
            for e in ("0", "-1", "nan")
        ],
        ("map", "epsilon=-1", "epsilon must be"),
        ("map", "epsilon=nan", "epsilon must be"),
        ("sampler", "epsilon=inf", "underflow"),
        ("map", "epsilon=inf", "finite"),
        ("fourier", "t=0", "t must be"),
        ("fourier", "t=inf", "finite"),
        ("sampler", "samples=-1", "samples"),
        ("map", "delta=0", "delta > 0"),
        ("map", "delta=-1", "delta > 0"),
        ("map", "draws=-1", "draws >= 0"),
    ],
)
def test_cli_bad_release_setting_exits_1(tmp_path, capsys, mechanism, setting, expect):
    # a later key=value token overrides release_args' own epsilon=3
    args = release_args(tmp_path, mechanism)
    at = args.index("epsilon=3") + 1
    assert main([*args[:at], setting, *args[at:]]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("dpbayes:")
    assert expect in captured.err
    assert "Traceback" not in captured.err


def edge_release_args(tmp_path, *pairs):
    """Mechanism-task arguments on a 3-node network where tiny epsilons reach the double range."""
    net = write_network(tmp_path, {"nodes": 3, "parents": [[], [0], [0, 1]]})
    data = write_binary_csv(tmp_path, [(0, 1, 1), (1, 0, 1), (1, 1, 0), (0, 0, 0)])
    return ["--task", "mechanism", "--network", str(net), "--dataset", str(data), *pairs]


def test_cli_fourier_posterior_past_the_double_range_exits_1(tmp_path, capsys):
    args = edge_release_args(tmp_path, "mechanism=fourier", "epsilon=1.4e-306", "seed=1")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(args) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("dpbayes:")
    assert "finite" in captured.err
    assert "Traceback" not in captured.err


def test_cli_laplace_release_at_tiny_epsilon_prints_truncated_counts(tmp_path, capsys):
    args = edge_release_args(tmp_path, "mechanism=laplace", "epsilon=1e-307", "seed=1")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(args) == 0
    header, *rows = capsys.readouterr().out.splitlines()
    assert header == "node,config,z1,z2"
    assert {float(v) for row in rows for v in row.split(",")[2:]} == {0.0, 4.0}


def test_cli_map_draw_at_huge_epsilon_is_the_best_point(tmp_path, capsys):
    grid = tmp_path / "grid.csv"
    grid.write_text("0.2,0.3\n0.4,0.2\n0.6,0.3\n0.8,0.2\n")
    utility = tmp_path / "util.csv"
    utility.write_text("1\n2\n3\n-1\n")
    args = ["--task", "mechanism", "mechanism=map", "epsilon=1e308", "draws=5", "seed=1",
            "--grid", str(grid), "--utility", str(utility)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(args) == 0
    assert capsys.readouterr().out.splitlines() == ["draw,point", *(f"{i},0.6" for i in range(5))]


def test_cli_nb_infinite_fourier_t_exits_1(capsys):
    assert main([*NB_ARGS, "--mechanisms", "fourier", "--fourier-t", "inf"]) == 1
    assert "t must be positive and finite" in capsys.readouterr().err


@pytest.mark.parametrize(
    "task, flag, value",
    [
        ("nb", "--threshold", "7"),
        ("nb", "--threshold", "nan"),
        ("linreg", "--noise-sigma", "-1"),
        ("linreg", "--noise-sigma", "nan"),
        ("linreg", "--sigma2", "inf"),
        ("linreg", "--sigma2", "nan"),
        ("linreg", "--radius", "inf"),
        ("linreg", "--radius", "nan"),
        ("linreg", "--b-grid", "1,"),
    ],
)
def test_cli_bad_sweep_setting_exits_1(capsys, task, flag, value):
    args = ["--task", task, "--repeats", "1", "--mechanisms", "none", flag, value]
    if task == "nb":
        args += ["--d", "2", "--n", "40", "--epsilon-grid", "1"]
    assert main(args) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("dpbayes:")
    # a range rule names the setting in words, a bad value by its key
    name = flag.lstrip("-")
    assert name.replace("-", " ") in captured.err or name.replace("-", "_") in captured.err
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("task", ["nb", "laplace"])
def test_cli_empty_out_writes_stdout_like_dash(tmp_path, capsys, task):
    args = NB_ARGS if task == "nb" else release_args(tmp_path, task)
    assert main(args + ["--out", "-"]) == 0
    dash = capsys.readouterr().out
    assert main(args + ["--out", ""]) == 0
    assert capsys.readouterr().out == dash
    assert dash.count("\n") > 1


def test_cli_accepts_benchmark_release_argv(tmp_path):
    # the in-process releases of the net-release benchmark workload
    run = perfbench_run()
    grid = tmp_path / "grid.csv"
    grid.write_text("0.2,0.5\n0.8,0.5\n")
    util = tmp_path / "util.csv"
    util.write_text("0.0\n1.0\n")
    paths = {
        "network": str(write_network(tmp_path)),
        "dataset": str(write_binary_csv(tmp_path, MECH_DATA)),
        "grid": str(grid),
        "utility": str(util),
    }
    for i, mechanism in enumerate(run.NET_MECHANISMS):
        assert main(run.net_argv(mechanism, {"paths": paths}, i)) == 0, mechanism


def test_cli_sampler_emission(tmp_path, capsys):
    args = mech_args(tmp_path, "mechanism=sampler", "epsilon=3", "samples=2", "seed=9")
    assert main(args) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == "node,config,draw,theta"
    assert len(lines) == 1 + 2 * 5
    thetas = [float(l.split(",")[3]) for l in lines[1:]]
    assert all(0.0 < t < 1.0 for t in thetas)


def test_cli_sampler_draws_are_release_block_columns(tmp_path, capsys):
    # draw s of the output is column s of one release block keyed by seed
    args = mech_args(tmp_path, "mechanism=sampler", "epsilon=3", "samples=3", "seed=9")
    assert main(args) == 0
    lines = capsys.readouterr().out.strip().split("\n")[1:]
    graph, priors = load_network(tmp_path / "net.json")
    data = Dataset(np.array(MECH_DATA))
    post = posterior_params(priors, compute_updates(graph, data))
    block = trimmed_posterior_draws(post, trim_bound(3.0), 9, 3)
    want = [f"{i},{j},{s},{float(block[(i, j)][s])!r}" for s in range(3) for i, j in sorted(post)]
    assert lines == want


def test_cli_sampler_negative_samples_is_config_error(tmp_path, capsys):
    args = mech_args(tmp_path, "mechanism=sampler", "epsilon=3", "samples=-1")
    assert main(args) == 1
    assert "samples" in capsys.readouterr().err


def test_cli_sampler_underflowing_mass_exits_1(tmp_path, capsys):
    # prior Beta(5000, 1) leaves no representable mass on the trim interval
    spec = {"nodes": 1, "parents": [[]], "priors": {"default": [5000.0, 1.0]}}
    net = write_network(tmp_path, spec)
    data = write_binary_csv(tmp_path, [(1,), (0,)])
    args = ["--task", "mechanism", "--network", str(net), "--dataset", str(data),
            "mechanism=sampler", "epsilon=3", "seed=1"]
    assert main(args) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "mass" in captured.err


def test_cli_map_emission(tmp_path, capsys):
    grid = tmp_path / "grid.csv"
    grid.write_text("0.2,0.5\n0.8,0.5\n")
    args = [
        "--task", "mechanism",
        "mechanism=map", "epsilon=1", "seed=4", "draws=3",
        "--grid", str(grid),
    ]
    assert main(args) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == "draw,point"
    assert len(lines) == 1 + 3
    for i, line in enumerate(lines[1:]):
        idx, coords = line.split(",")
        assert int(idx) == i
        assert float(coords) in (0.2, 0.8)


def test_cli_map_with_utility_file(tmp_path, capsys):
    grid = tmp_path / "grid.csv"
    grid.write_text("0.2,0.5\n0.8,0.5\n")
    util = tmp_path / "util.csv"
    util.write_text("0.0\n1000.0\n")
    args = [
        "--task", "mechanism",
        "mechanism=map", "epsilon=5", "seed=4", "draws=5",
        "--grid", str(grid), "--utility", str(util),
    ]
    assert main(args) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    # softmax at eps=5 with a 1000-point utility gap picks the winner
    assert all(line.split(",")[1] == "0.8" for line in lines[1:])


@pytest.mark.parametrize(
    "utility",
    ["0.0\nx\n", "0.0\n1.0\n2.0\n", "0.0\ninf\n", "nan\n1.0\n"],
    ids=["non-numeric", "one-too-many", "inf", "nan"],
)
def test_cli_map_bad_utility_file_is_config_error(tmp_path, capsys, utility):
    grid = tmp_path / "grid.csv"
    grid.write_text("0.2,0.5\n0.8,0.5\n")
    util = tmp_path / "util.csv"
    util.write_text(utility)
    args = [
        "--task", "mechanism",
        "mechanism=map", "epsilon=1", "--grid", str(grid), "--utility", str(util),
    ]
    assert main(args) == 1
    err = capsys.readouterr().err
    assert err.startswith("dpbayes: config error:") and f"utility file {util}" in err


def test_cli_mechanism_out_file(tmp_path):
    out = tmp_path / "release.csv"
    args = mech_args(tmp_path, "mechanism=laplace", "epsilon=1", "seed=7") + [
        "--out", str(out)
    ]
    assert main(args) == 0
    assert out.read_text().startswith("node,config,z1,z2\n")


# ---------------------------------------------------------------------------
# CLI: verify task
# ---------------------------------------------------------------------------


def test_cli_verify_json_report(capsys):
    assert main(["--task", "verify", "--seed", "20240817"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["passed"] is True
    assert [c["name"] for c in report["checks"]] == ["laplace", "fourier", "map"]
    assert all(set(c) == {"name", "passed", "detail"} and c["passed"] for c in report["checks"])


@pytest.mark.parametrize("name, reads", [("laplace", "2.000000"), ("fourier", "1.500000")])
def test_cli_verify_exits_2_on_a_halved_noise_scale(name, reads, monkeypatch, capsys):
    # the table reads the scale each release uses, so a wrong one fails its row
    if name == "laplace":
        monkeypatch.setattr(LaplaceNoiseSpec, "scale", property(lambda s: s.node_count / s.epsilon))
    else:
        scale = dpbayes.fourier.noise_scale
        monkeypatch.setattr(dpbayes.fourier, "noise_scale", lambda c, eps: scale(c, eps) / 2.0)
    assert main(["--task", "verify"]) == 2
    failing = [c for c in json.loads(capsys.readouterr().out)["checks"] if not c["passed"]]
    assert [c["name"] for c in failing] == [name]
    assert f"worst loss / epsilon {reads}" in failing[0]["detail"]


def test_cli_verify_exits_2_on_a_halved_map_delta(monkeypatch, capsys):
    # probabilities calibrated at delta/2 while neighbours move each utility by delta
    probs = dpbayes.expmech.sampling_probabilities

    def halved(grid, utility, epsilon, delta):
        return probs(grid, utility, epsilon, MapSensitivity(delta.kind, delta.delta_value / 2.0))

    monkeypatch.setattr(dpbayes.expmech, "sampling_probabilities", halved)
    assert main(["--task", "verify"]) == 2
    failing = [c for c in json.loads(capsys.readouterr().out)["checks"] if not c["passed"]]
    assert [c["name"] for c in failing] == ["map"]
