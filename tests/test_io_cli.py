"""File loaders and the command-line entry point."""
import importlib.util
import json
import warnings

import numpy as np
import pytest

from dpbayes import (
    ConfigError,
    Dataset,
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
    ],
    ids=[
        "parent-out-of-range", "no-nodes", "negative-override",
        "priors-list", "priors-null", "overrides-number",
    ],
)
def test_cli_bad_network_is_config_error(tmp_path, capsys, spec):
    net = write_network(tmp_path, spec)
    data = write_binary_csv(tmp_path, [(0, 1), (1, 0)])
    args = ["--task", "mechanism", "--network", str(net), "--dataset", str(data),
            "mechanism=laplace", "epsilon=1", "seed=1"]
    assert main(args) == 1
    err = capsys.readouterr().err
    assert err.startswith("dpbayes: config error:") and str(net) in err


def test_load_network_cycle_rejected(tmp_path):
    bad = {"nodes": 2, "parents": [[1], [0]]}
    with pytest.raises(Exception):
        load_network(write_network(tmp_path, bad))


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


def test_load_grid_round_trip(tmp_path):
    path = tmp_path / "grid.csv"
    path.write_text("0.1,0.2,0.25\n0.3,0.4,0.75\n")
    grid = load_grid(path)
    assert grid.points == ((0.1, 0.2), (0.3, 0.4))
    assert grid.prior_mass == (0.25, 0.75)


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


def test_cli_bad_flag_maps_to_config_error_code(capsys):
    assert main(["--task", "nb", "--repeats", "many"]) == 1


def test_cli_unknown_task_via_pair(capsys):
    assert main(["task=tarot"]) == 1
    assert "unknown task" in capsys.readouterr().err


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


def test_cli_bad_json_config(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("{broken")
    assert main(["--config", str(cfg), "--task", "nb"]) == 1


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


def test_cli_mechanism_needs_name(tmp_path, capsys):
    assert main(["--task", "mechanism"]) == 1
    assert "mechanism" in capsys.readouterr().err


def test_cli_mechanism_needs_epsilon(tmp_path, capsys):
    assert main(mech_args(tmp_path, "mechanism=laplace", "seed=1")) == 1
    assert "epsilon" in capsys.readouterr().err


def test_cli_mechanism_unknown_name(tmp_path, capsys):
    assert main(mech_args(tmp_path, "mechanism=teleport", "epsilon=1", "seed=1")) == 1


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
    assert flag.lstrip("-").replace("-", " ") in captured.err
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
    assert len(report["checks"]) >= 8
    assert all({"name", "passed"} <= set(c) for c in report["checks"])
