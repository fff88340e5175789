"""dpbayes benchmark: sweeps and single releases through the public entry points.

    python3 perfbench/run.py --workload nb-sampler --seed 1 --seconds 20 --trace 0

Run from the repository root. The package is imported from `src/`; no
install is needed. Every input is generated from `--seed`. One client
in one process drives the workload as a closed loop: the next operation
starts when the previous one has returned. Each operation's output is
checked outside the timed interval, and its time is expressed in units
of a host reference computation timed around it (see
host_reference_ms). `--trace 0` prints the end-to-end metrics;
`--trace 1` runs each operation untraced and then traced, in turn, and
prints the per-layer metrics (see tracer.py).
The last line of standard output is the result as one JSON object; the
line before it is the run record.
"""
from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# One process, no thread pools: BLAS must not start its own threads.
BLAS_THREADS = "1"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

EPSILON_GRID = (0.5, 1.0, 2.0, 5.0, 10.0, 20.0)
SWEEPS = {
    # criterion-12 data config, sampler only; one repeat per operation, so
    # a run averages over many generated datasets
    "nb-sampler": dict(task="nb", mechanisms=("sampler",), epsilon_grid=EPSILON_GRID,
                       repeats=1, d=16, n=1000, train_fraction=0.05, sampler_samples=1000),
    "nb-release": dict(task="nb", mechanisms=("none", "laplace", "fourier"),
                       epsilon_grid=EPSILON_GRID, repeats=20, d=16, n=1000,
                       train_fraction=0.05),
    # criterion-13 config
    "linreg": dict(task="linreg", mechanisms=("none", "sampler"), b_grid=(0.1, 1.0, 10.0),
                   repeats=50, d=5, n=2000, regression_samples=100),
}
NET_MECHANISMS = ("laplace", "fourier", "sampler", "map")  # net-release round-robin
WORKLOADS = (*SWEEPS, "net-release")

NET_NODES = 20
NET_MAX_PARENTS = 4
NET_RECORDS = 5000
NET_FILESETS = 8  # network/dataset/grid/utility sets per run, used in turn
NET_EPSILON = 3.0
MAP_GRID_POINTS = 2000
MAP_DRAWS = 100

SETUP_SAMPLES = 7  # fresh interpreters, one after another
# Standard-library imports that set-up samples are divided by (see
# setup_seconds); none of them is imported by this script itself.
IMPORT_REFERENCE_MODULES = (
    "asyncio", "concurrent.futures", "csv", "ctypes", "dataclasses", "difflib",
    "email.mime.multipart", "http.client", "inspect", "logging", "multiprocessing",
    "pickle", "pydoc", "sqlite3", "ssl", "tarfile", "unittest", "xml.dom.minidom",
)
IMPORT_REFERENCE_NOMINAL_S = 0.1
MIN_OPS = 4
P90_MIN_CALLS = 100  # at least ten calls lie beyond the 90th percentile
WARMUP_OP = 1_000_001  # index of the warm-up op, beyond any measured op
QUALITY_OPS = 3  # accuracy / mse come from the first ops, so they depend on the seed only


# ---------------------------------------------------------------------------
# set-up: imports plus input generation
# ---------------------------------------------------------------------------


def import_program():
    if not (SRC / "dpbayes" / "__init__.py").is_file():
        raise FileNotFoundError(f"dpbayes sources not found under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import numpy  # noqa: F401
    import scipy  # noqa: F401
    from dpbayes import cli, harness

    return cli, harness


def _random_dag(rng) -> list[list[int]]:
    """Random labels and parents; parent counts 0..4 are each used four times.

    Fixing the count profile fixes the entry count (124), so file sets
    differ in structure but not in size.
    """
    import numpy as np

    order = rng.permutation(NET_NODES)
    counts = rng.permutation(np.resize(np.arange(NET_MAX_PARENTS + 1), NET_NODES))
    for pos in range(NET_MAX_PARENTS):  # the pos-th node has only pos candidates
        if counts[pos] > pos:
            swap = rng.choice(np.flatnonzero(counts[pos + 1:] <= pos)) + pos + 1
            counts[[pos, swap]] = counts[[swap, pos]]
    parents: list[list[int]] = [[] for _ in range(NET_NODES)]
    for pos, node in enumerate(order):
        chosen = rng.choice(order[:pos], size=int(counts[pos]), replace=False)
        parents[int(node)] = [int(p) for p in chosen]
    return parents


def _ancestral_records(rng, parents: list[list[int]]):
    """Records drawn node by node; theta spread evenly over [0.1, 0.9]."""
    import numpy as np

    sizes = [1 << len(pa) for pa in parents]
    m = sum(sizes)
    theta = 0.1 + 0.8 * (rng.permutation(m) + rng.random(m)) / m
    offsets = np.cumsum([0] + sizes)
    recs = np.zeros((NET_RECORDS, NET_NODES), dtype=np.int8)
    done: set[int] = set()
    while len(done) < NET_NODES:
        for node, pa in enumerate(parents):
            if node in done or not done.issuperset(pa):
                continue
            cfg = recs[:, pa].astype(np.int64) @ (1 << np.arange(len(pa), dtype=np.int64))
            recs[:, node] = rng.random(NET_RECORDS) < theta[offsets[node] + cfg]
            done.add(node)
    return recs


def _closure(parents: list[list[int]]) -> set[int]:
    members: set[int] = set()
    for node, pa in enumerate(parents):
        fam = (1 << node) | sum(1 << p for p in pa)
        sub = fam
        while True:
            members.add(sub)
            if sub == 0:
                break
            sub = (sub - 1) & fam
    return members


def make_filesets(seed: int, tmp: Path) -> list[dict]:
    """Network JSON, records CSV, grid CSV and utility CSV, per file set."""
    import numpy as np

    filesets = []
    for s in range(NET_FILESETS):
        rng = np.random.default_rng([seed, s])
        parents = _random_dag(rng)
        recs = _ancestral_records(rng, parents)
        grid = (np.arange(MAP_GRID_POINTS) + 0.5) / MAP_GRID_POINTS
        mass = rng.uniform(0.5, 1.5, size=MAP_GRID_POINTS)
        mass /= mass.sum()
        root = parents.index([])
        ones = int(recs[:, root].sum())
        utility = ones * np.log(grid) + (NET_RECORDS - ones) * np.log1p(-grid)

        paths = {k: tmp / f"{k}-{s}.{ext}" for k, ext in
                 (("network", "json"), ("dataset", "csv"), ("grid", "csv"), ("utility", "csv"))}
        paths["network"].write_text(json.dumps({"nodes": NET_NODES, "parents": parents}))
        np.savetxt(paths["dataset"], recs, fmt="%d", delimiter=",")
        paths["grid"].write_text(
            "".join(f"{g!r},{w!r}\n" for g, w in zip(grid.tolist(), mass.tolist())))
        paths["utility"].write_text("".join(f"{u!r}\n" for u in utility.tolist()))
        filesets.append({
            "paths": {k: str(p) for k, p in paths.items()},
            "entries": sorted((i, j) for i, pa in enumerate(parents) for j in range(1 << len(pa))),
            "closure": sorted(_closure(parents)),
            "grid": set(grid.tolist()),
        })
    return filesets


def setup(workload: str, seed: int, tmp: Path):
    """Everything `setup_s` covers; returns the program modules and the inputs."""
    program = import_program()
    inputs = make_filesets(seed, tmp) if workload == "net-release" else None
    return program, inputs


def setup_probe(workload: str, seed: int) -> tuple[float, float]:
    """Times the reference imports, then set-up; run in a fresh interpreter.

    The reference modules stay loaded, so set-up finds the ones it
    shares with them already imported, the same way at every commit.
    """
    start = time.perf_counter()
    for name in IMPORT_REFERENCE_MODULES:
        importlib.import_module(name)
    reference = time.perf_counter() - start
    tmp = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        start = time.perf_counter()
        setup(workload, seed, tmp)
        return reference, time.perf_counter() - start
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def setup_seconds(workload: str, seed: int) -> tuple[float, dict]:
    """Set-up time in seconds on a nominal host, and the raw samples.

    Fresh interpreters run setup_probe one after another. Import time
    follows the host's speed, which can change by 1.9x within a minute;
    set-up time divided by the reference time of the same interpreter
    varies far less. The result is the median of those ratios times
    IMPORT_REFERENCE_NOMINAL_S: the set-up time on a host whose
    reference imports take 0.1 s.
    """
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", workload, "--seed", str(seed)]
    samples = []
    for _ in range(SETUP_SAMPLES):
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=60, check=True)
        samples.append([float(v) for v in done.stdout.split()[-2:]])
    ratios = [setup_s / reference for reference, setup_s in samples]
    return (IMPORT_REFERENCE_NOMINAL_S * statistics.median(ratios),
            {"setup_samples_reference_and_s": samples})


# ---------------------------------------------------------------------------
# operations and their output checks
# ---------------------------------------------------------------------------


def require(ok: bool, what: str = "output check") -> None:
    if not ok:
        raise AssertionError(what)


def check_sweep(config, result, harness) -> list[float]:
    """Rows must be exactly the configured (mechanism, param, repeat) set."""
    if config.task == "nb":
        mechanisms, grid, metric = config.mechanisms, config.epsilon_grid, "accuracy"
    else:
        mechanisms = tuple(m for m in config.mechanisms if m in harness.LINREG_MECHANISMS)
        grid, metric = config.b_grid, "mse"
    expected = [(m, p, r) for m in mechanisms for p in grid for r in range(config.repeats)]
    got = [(row.mechanism, row.param, row.repeat) for row in result.rows]
    require(sorted(got) == sorted(expected), "sweep rows do not match the configured set")
    for row in result.rows:
        require(row.metric == metric and math.isfinite(row.value), f"bad row {row}")
        if metric == "accuracy":
            require(0.0 <= row.value <= 1.0, f"accuracy out of [0, 1]: {row}")
        else:
            require(row.value >= 0.0, f"negative mse: {row}")
    return [row.value for row in result.rows if row.mechanism != "none"]


def net_argv(mechanism: str, fileset: dict, i: int) -> list[str]:
    paths = fileset["paths"]
    argv = ["--task", "mechanism", f"mechanism={mechanism}", f"epsilon={NET_EPSILON!r}",
            f"seed={i}"]
    if mechanism == "map":
        return argv + [f"draws={MAP_DRAWS}", "--grid", paths["grid"],
                       "--utility", paths["utility"]]
    if mechanism == "sampler":
        argv.append("samples=1")
    return argv + ["--network", paths["network"], "--dataset", paths["dataset"]]


def check_net(mechanism: str, fileset: dict, text: str) -> int:
    """Parse one CLI release and check it; returns the number of data rows."""
    header, *lines = text.strip().splitlines()
    rows = [line.split(",") for line in lines]
    entries = fileset["entries"]
    if mechanism == "laplace":
        require(header == "node,config,z1,z2")
        require(sorted((int(r[0]), int(r[1])) for r in rows) == entries, "laplace entries")
        require(all(0.0 <= float(z) <= NET_RECORDS for r in rows for z in r[2:]),
                "laplace count outside [0, n]")
    elif mechanism == "fourier":
        require(header == "section,key1,key2,value")
        coeff = [r for r in rows if r[0] == "coefficient"]
        post = [r for r in rows if r[0] == "posterior"]
        require(len(coeff) + len(post) == len(rows))
        require(sorted(int(r[1], 16) for r in coeff) == fileset["closure"],
                "closure coefficients")
        require(all(math.isfinite(float(r[3])) for r in coeff), "finite coefficients")
        require(sorted((int(r[1]), int(r[2])) for r in post) == entries,
                "fourier posterior entries")
        for r in post:
            a, b = (float(v) for v in r[3].split(";"))
            require(0.0 < a < math.inf and 0.0 < b < math.inf, f"posterior {r}")
    elif mechanism == "sampler":
        require(header == "node,config,draw,theta")
        require(sorted((int(r[0]), int(r[1])) for r in rows) == entries, "sampler entries")
        omega = math.exp(-NET_EPSILON / 2.0)
        require(all(r[2] == "0" and omega <= float(r[3]) <= 1.0 - omega for r in rows),
                "theta outside [omega, 1 - omega]")
    else:
        require(header == "draw,point")
        require([int(r[0]) for r in rows] == list(range(MAP_DRAWS)), "map draws")
        require(all(float(r[1]) in fileset["grid"] for r in rows), "map point off the grid")
    return len(rows)


def nb_theta(harness, workload: str, seed: int, i: int) -> dict | None:
    """Generating parameters of one naive-Bayes dataset, uniform on (0, 1).

    The draws are stratified: each of the m entries falls in its own
    1/m-wide slice of (0, 1), in random order. Every parameter is still
    uniform, so the expected work is that of independent draws, but each
    dataset gets the same share of near-0 and near-1 parameters, which
    decide how often the trimmed sampler rejects.
    """
    if SWEEPS[workload]["task"] != "nb":
        return None
    import numpy as np

    keys = list(harness.naive_bayes_graph(SWEEPS[workload]["d"]).entry_keys())
    rng = np.random.default_rng([seed, i])
    theta = (rng.permutation(len(keys)) + rng.random(len(keys))) / len(keys)
    return dict(zip(keys, theta.tolist()))


def make_op(workload: str, seed: int, program, inputs):
    """op(i) -> (output rows, quality values, {kind: seconds}); raises on a failed check.

    A sweep op is one harness.run_experiment call. A net-release op is
    one round: the four CLI releases, one after another, on one file set.
    """
    cli, harness = program
    if workload in SWEEPS:
        def op(i: int):
            config = harness.ExperimentConfig(
                seed=seed * 1_000_003 + i, theta=nb_theta(harness, workload, seed, i),
                **SWEEPS[workload])
            start = time.perf_counter()
            result = harness.run_experiment(config)
            elapsed = time.perf_counter() - start
            return len(result.rows), check_sweep(config, result, harness), {workload: elapsed}
        return op

    def op(i: int):
        fileset = inputs[i % len(inputs)]
        rows, seconds = 0, {}
        for mechanism in NET_MECHANISMS:
            buf = io.StringIO()
            argv = net_argv(mechanism, fileset, i)
            with contextlib.redirect_stdout(buf):
                start = time.perf_counter()
                code = cli.main(argv)
                seconds[mechanism] = time.perf_counter() - start
            require(code == 0, f"cli.main {mechanism} exited {code}")
            rows += check_net(mechanism, fileset, buf.getvalue())
        return rows, [], seconds
    return op


class Loop:
    """Closed loop: calls op(i) for consecutive i, one at a time."""

    def __init__(self, op) -> None:
        self.op = op
        self.times: list[float] = []
        self.times_by_kind: dict[str, list[float]] = {}
        self.rows = 0
        self.failed = 0
        self.quality: list[float] = []
        self.host_ms: list[float] = []

    def call(self, i: int) -> None:
        self.host_ms.append(host_reference_ms())
        start = time.perf_counter()
        try:
            rows, quality, seconds = self.op(i)
        except Exception:  # a failed op is counted and the loop goes on
            traceback.print_exc(file=sys.stderr)
            self.failed += 1
            self.times.append(time.perf_counter() - start)
            return
        self.times.append(math.fsum(seconds.values()))
        for kind, elapsed in seconds.items():
            self.times_by_kind.setdefault(kind, []).append(elapsed)
        self.rows += rows
        if 0 <= i < QUALITY_OPS:
            self.quality.extend(quality)

    def close(self) -> None:
        """Takes the reference time after the last op."""
        self.host_ms.append(host_reference_ms())

    def release_times(self) -> list[float]:
        """Times of the single CLI releases, all kinds together (net-release)."""
        return [t for kind in NET_MECHANISMS for t in self.times_by_kind.get(kind, ())]

    def costs(self) -> list[float]:
        """Each op's time in host-reference units: divided by the mean of the
        reference times taken just before and just after it."""
        return [t * 1e3 / (0.5 * (self.host_ms[k] + self.host_ms[k + 1]))
                for k, t in enumerate(self.times)]


def run_for(seconds: float, min_ops: int, step) -> None:
    """Calls step(0), step(1), ... one at a time: for `seconds`, and at least `min_ops` times."""
    start = time.perf_counter()
    i = 0
    while i < min_ops or time.perf_counter() - start < seconds:
        step(i)
        i += 1


# ---------------------------------------------------------------------------
# metrics, run record and main
# ---------------------------------------------------------------------------


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def host_reference_ms() -> float:
    """Time of a fixed computation that uses no dpbayes code; the faster of two tries.

    The mix resembles the workloads: tuple-keyed dict building, seeded
    generator construction, small numpy arithmetic, Beta draws, a small
    matrix product and CSV-like parsing. A shared host's speed can drift
    by 2x over tens of seconds; dividing op times by this reference
    cancels most of that drift.
    """
    import numpy as np

    best = math.inf
    for _ in range(2):
        start = time.perf_counter()
        table = {}
        for k in range(200):
            table[(k, k & 3)] = (float(k), float(k + 1))
        a = np.arange(17 * 50, dtype=np.float64).reshape(50, 17) / 850.0
        for k in range(24):
            rng = np.random.default_rng(np.random.SeedSequence([k, 7, 3]))
            rng.random(2)
            rng.beta(2.0, 30.0, size=64).sum()
            float((a[k] * 2.0 + 1.0).sum())
        (a @ a.T).sum()
        sum(int(v) for line in ("0,1,1,0,1,0,0,1,1,0\n",) * 40 for v in line.split(","))
        best = min(best, time.perf_counter() - start)
    return best * 1e3


def latency_summary(times: list[float]) -> dict:
    """Median, and the 90th percentile where at least ten calls lie beyond it."""
    ms = [t * 1e3 for t in times]
    out = {"count": len(ms), "ms_p50": statistics.median(ms)}
    if len(ms) >= P90_MIN_CALLS:
        out["ms_p90"] = statistics.quantiles(ms, n=10)[-1]
    return out


def run_record(args, loop: Loop, setup: dict) -> dict:
    import numpy
    import scipy

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "cpu_model": cpu_model(),
        "nproc": os.cpu_count(),
        "blas_threads": {var: os.environ.get(var) for var in BLAS_VARS},
        "load": "one process, one client, closed loop, no thread pools",
        **setup,
        "host_reference_ms_p50": statistics.median(loop.host_ms),
        "rows_per_s": loop.rows / math.fsum(loop.times),
        "latency": {"all": latency_summary(loop.times)},
    }
    if args.workload == "net-release":
        for kind, times in loop.times_by_kind.items():
            record["latency"][kind] = latency_summary(times)
        record["latency"]["mix"] = latency_summary(loop.release_times())
    if loop.quality:
        name = "mse" if args.workload == "linreg" else "accuracy"
        record[f"{name}_first_{QUALITY_OPS}_ops"] = statistics.fmean(loop.quality)
    return record


def end_to_end_metrics(loop: Loop, setup_s: float, attempted: int, failed: int) -> dict:
    costs = loop.costs()
    return {
        "setup_s": {"value": setup_s, "unit": "s"},
        "op_ref_p50": {"value": statistics.median(costs), "unit": "ref"},
        "rows_per_ref": {"value": loop.rows / math.fsum(costs), "unit": "1/ref"},
        "peak_rss_mb": {
            "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "unit": "MB",
        },
        "ok_frac": {"value": 1.0 - failed / attempted, "unit": "frac"},
    }


def per_layer_metrics(op, seconds: float, min_ops: int) -> tuple[dict, Loop, Loop]:
    """Runs each op untraced and then traced, for `seconds` in all.

    Returns the metrics and the untraced and traced loops. Each traced
    op runs right after its untraced twin, on the same inputs and at
    nearly the same host speed; trace.overhead_frac is the median ratio
    of their times, minus 1.
    """
    from tracer import Tracer

    plain, traced, tracer = Loop(op), Loop(op), Tracer()

    def step(i: int) -> None:
        plain.call(i)
        with tracer:
            traced.call(i)

    run_for(seconds, min_ops, step)
    plain.close()
    traced.close()
    metrics = tracer.metrics(len(traced.times))
    metrics["trace.overhead_frac"] = {
        "value": statistics.median(t / u for t, u in zip(traced.times, plain.times)) - 1.0,
        "unit": "frac"}
    releases = {kind: plain.times_by_kind.get(kind, []) for kind in NET_MECHANISMS}
    releases["mix"] = plain.release_times()
    for kind, times in releases.items():  # untraced latency of single releases
        summary = latency_summary(times) if times else {}
        for stat in ("ms_p50", "ms_p90") if kind == "mix" else ("ms_p50",):
            metrics[f"cli.main.{kind}.{stat}"] = {"value": summary.get(stat, 0.0), "unit": "ms"}
    return metrics, plain, traced


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be non-negative")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in BLAS_VARS:
        os.environ[var] = BLAS_THREADS
    if args.setup_probe:
        print(*map(repr, setup_probe(args.workload, args.seed)))
        return 0

    tmp = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        start = time.perf_counter()
        program, inputs = setup(args.workload, args.seed, tmp)
        setup_info = {"setup_s_in_process": time.perf_counter() - start}

        op = make_op(args.workload, args.seed, program, inputs)
        # enough net-release rounds for a p90 over the single releases
        min_ops = (P90_MIN_CALLS // len(NET_MECHANISMS) if args.workload == "net-release"
                   else MIN_OPS)
        warm = Loop(op)  # checked, not timed; no measured op uses these inputs
        warm.call(WARMUP_OP)
        if args.trace == 0:
            setup_s, samples = setup_seconds(args.workload, args.seed)
            setup_info.update(samples)
            loop = Loop(op)
            run_for(args.seconds, min_ops, loop.call)
            loop.close()
            attempted = len(warm.times) + len(loop.times)
            failed = warm.failed + loop.failed
            metrics = end_to_end_metrics(loop, setup_s, attempted, failed)
        else:
            metrics, loop, traced = per_layer_metrics(op, args.seconds, min_ops)
            attempted = len(warm.times) + len(loop.times) + len(traced.times)
            failed = warm.failed + loop.failed + traced.failed

        print(json.dumps({"run_record": run_record(args, loop, setup_info)}))
        print(json.dumps({
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": metrics,
        }))
        return 0
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def _terminate(signum, frame):
    raise SystemExit(128 + signum)


if __name__ == "__main__":
    signal.signal(signal.SIGTERM, _terminate)
    try:
        sys.exit(main())
    except (FileNotFoundError, ImportError, subprocess.SubprocessError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        sys.exit(2)
