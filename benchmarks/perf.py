"""lipem benchmark: three seeded workloads through the public entry points.

Run from the repository root:

    python3 benchmarks/perf.py --workload gaussian_study --seed 1 --seconds 50 --trace 0

Workloads (see NOTES.md for why each exists):

* ``gaussian_study``: ``lipem bench gaussian`` with the acceptance-08
  configuration and a reduced replication count.
* ``turbofan_synth``: ``lipem bench cmapss --lip uniform`` on a
  100-engine FD001-format file written during set-up.
* ``choice_fit``: ``lipem simulate-oracle`` then ``lipem fit-lip``.

Set-up (imports, input files, one warm-up call) is timed several times
and reported apart from the timed rounds. A round repeats the workload
on the same inputs; rounds continue while the next one is expected to
end within ``--seconds``, and ``wall_s`` is the fastest of them. With
``--trace 0`` the only thing installed in lipem is a timer around
``lipem.bench.run_em``; with ``--trace 1`` untraced rounds alternate
with rounds under the span tracer of ``tracer.py``, and the per-layer
metrics of the median traced round are printed.

Human-readable lines come first; the last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``. A fuller record, environment included, is written to
``benchmarks/out/BENCH_<workload>.json`` and, when traced, the spans to
``benchmarks/out/spans_<workload>.npz``.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import io
import itertools
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import traceback
from dataclasses import dataclass, replace
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
REFERENCE_DIR = BENCH_DIR / "reference"
# the package default seed; only this seed is compared with the reference
DEFAULT_SEED = 42
# absolute tolerance, scaled by max(1, |reference|), of the reference check
REFERENCE_TOL = 1e-10
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class HarnessError(Exception):
    """The benchmark cannot run here; no result is printed."""


@dataclass(frozen=True)
class Sizes:
    gaussian_replications: int = 1
    engines: int = 100
    lifetimes: tuple[int, int] = (128, 362)  # the FD001 range, inclusive
    target_engines: tuple[int, ...] = (4,)
    cutoffs: tuple[float, ...] = (0.9, 0.5, 0.1)
    choice_sources: int = 50
    choice_sizes: str = "3,4,5"
    records: int = 2_500
    setups: int = 5
    import_children: int = 8


FULL = Sizes()
SMOKE = replace(
    FULL,
    engines=12,
    lifetimes=(40, 80),
    cutoffs=(0.9, 0.5),
    choice_sources=8,
    records=300,
    setups=1,
    import_children=1,
)


# -- environment ------------------------------------------------------------


def pin_blas_threads() -> None:
    """Run BLAS on one thread; must run before numpy is imported.

    The workloads' matrices are small (at most 51 x 51), so a second BLAS
    thread saves nothing and only competes with the machine's other work.
    One thread is within the cap of nproc.
    """
    for var in BLAS_ENV:
        os.environ[var] = "1"


def blas_threads() -> dict[str, int]:
    """Thread count of each OpenBLAS library mapped into this process."""
    import ctypes

    libs = set()
    with open("/proc/self/maps", encoding="utf-8") as fh:
        for line in fh:
            path = line.split()[-1]
            if "openblas" in Path(path).name.lower() and ".so" in path:
                libs.add(path)
    out = {}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            if hasattr(lib, symbol):
                out[Path(path).name] = int(getattr(lib, symbol)())
                break
    return out


def environment(nproc: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "blas_env": {var: os.environ[var] for var in BLAS_ENV},
        "machine": platform.machine(),
    }


IMPORT_TIMER = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t0 = time.perf_counter(); "
    "import lipem; print(time.perf_counter() - t0)"
)


def import_lipem(children: int):
    """Import lipem from this checkout's src/; return it and the import
    times: this process's first, then one from each fresh interpreter."""
    import subprocess

    src = ROOT / "src"
    if not (src / "lipem" / "__init__.py").is_file():
        raise HarnessError(f"no lipem package under {src}")
    sys.path.insert(0, str(src))
    t0 = perf_counter()
    import lipem

    seconds = [perf_counter() - t0]
    if Path(lipem.__file__).resolve().parent != (src / "lipem").resolve():
        raise HarnessError(f"imported lipem from {lipem.__file__}, not {src}")
    for _ in range(children):
        # run() waits for the child, also on timeout, where it kills it first
        child = subprocess.run(
            [sys.executable, "-c", IMPORT_TIMER, str(src)],
            capture_output=True, text=True, timeout=60, check=True,
        )
        seconds.append(float(child.stdout))
    return lipem, seconds


def import_fd001_writer():
    """The synthetic FD001 generator shared with the test suite."""
    import importlib.util

    path = ROOT / "tests" / "conftest.py"
    if not path.is_file():
        raise HarnessError(f"missing {path}")
    spec = importlib.util.spec_from_file_location("lipem_test_conftest", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.synthetic_trajectory, module.write_cmapss_file


# -- operation accounting -----------------------------------------------------


class Ops:
    """Counts attempted and failed operations; a failure never aborts.

    An operation is a ``run_em`` call, a CLI call or one group of output
    checks; it fails when it raises, exits non-zero or any check in it
    does not hold.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def record(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.failures.extend(problems[: max(0, 50 - len(self.failures))])
            for problem in problems:
                print(f"check failed: {problem}", file=sys.stderr)


class EmTimer:
    """perf_counter timer and output check around ``lipem.bench.run_em``."""

    def __init__(self, bench_module, ops: Ops):
        self.bench = bench_module
        self.ops = ops
        self.samples: list[float] = []

    @contextlib.contextmanager
    def installed(self, recording: bool = True):
        """Time and check each call; keep the times only if recording."""
        import numpy as np

        inner = self.bench.run_em
        timer = self

        def timed_run_em(*args, **kwargs):
            t0 = perf_counter()
            try:
                out = inner(*args, **kwargs)
            except Exception as exc:
                timer.ops.record([f"run_em raised {type(exc).__name__}: {exc}"])
                raise
            elapsed = perf_counter() - t0
            if recording:
                timer.samples.append(elapsed)
            theta, weights = out[0].theta, np.asarray(out[0].weights, dtype=float)
            problems = []
            if not np.all(np.isfinite(theta)):
                problems.append("run_em returned a non-finite theta")
            if not np.all((weights >= 0.0) & (weights <= 1.0)):
                problems.append("run_em returned weights outside [0, 1]")
            timer.ops.record(problems)
            return out

        self.bench.run_em = timed_run_em
        try:
            yield self
        finally:
            self.bench.run_em = inner


# -- workloads ----------------------------------------------------------------
# numpy is imported inside functions: BLAS threads are capped before its
# first import.


class Workload:
    """Inputs, one round and its checks; subclasses fill these in."""

    name = ""

    def __init__(self, lipem, sizes: Sizes, seed: int, ops: Ops):
        self.lipem = lipem
        self.sizes = sizes
        self.seed = seed
        self.ops = ops
        self.digests: dict[str, str] = {}
        self.prior_fit_s: list[float] = []

    def dispatch(self, argv: list[str]) -> float:
        """One CLI call through ``lipem.cli.dispatch``; returns its seconds."""
        sink = io.StringIO()
        t0 = perf_counter()
        try:
            with contextlib.redirect_stdout(sink):
                code = self.lipem.cli.dispatch(argv)
        except Exception as exc:
            traceback.print_exc()
            code = f"{type(exc).__name__}: {exc}"
        elapsed = perf_counter() - t0
        self.ops.record([] if code == 0 else [f"{' '.join(argv[:2])} failed: {code}"])
        return elapsed

    def same_bytes(self, key: str, paths) -> list[str]:
        """Reruns on the same inputs must write byte-identical files."""
        h = hashlib.sha256()
        try:
            for p in paths:
                h.update(Path(p).read_bytes())
        except OSError as exc:
            return [f"{key} missing: {exc}"]
        if self.digests.setdefault(key, h.hexdigest()) != h.hexdigest():
            return [f"{key} differ from the first round's bytes"]
        return []

    def setup(self, directory: Path) -> None:
        """Write the inputs into a fresh directory and make a warm-up call."""
        raise NotImplementedError

    def round(self) -> None:
        """The timed part: the CLI calls of one repetition."""
        raise NotImplementedError

    def check(self) -> None:
        """Checks on one round's outputs, after its timing."""
        raise NotImplementedError

    def finish(self) -> tuple[float, dict[str, list[float]]]:
        """Checks made once after the rounds; returns the estimate error
        and the values compared with the stored reference."""
        raise NotImplementedError


class Study(Workload):
    """A ``lipem bench`` study whose CSV, JSON and curves reports are read."""

    stem = ""
    # the EM arm whose mean report value is the estimate error
    estimate_method = ""

    def check(self):
        reports = self.dir / "reports"
        files = [reports / f"{self.stem}{suffix}" for suffix in (".csv", ".json", "_curves.csv")]
        problems = self.same_bytes(f"{self.stem} reports", files)
        self.sidecar = None
        try:
            rows = [list(csv.reader(files[i].read_text(encoding="utf-8").splitlines()))
                    for i in (0, 2)]
            sidecar = json.loads(files[1].read_text(encoding="utf-8"))
            numbers = [float(v) for row in rows[0][1:] for v in row[1:]]
            numbers += [float(v) for row in rows[1][1:] for v in row]
            for rep in sidecar["reports"]:
                numbers += [rep["mean"], rep["stderr"], *rep["values"]]
            if len(rows[0]) != len(sidecar["reports"]) + 1:
                problems.append(f"{self.stem} CSV and JSON differ in cell count")
            if not all(math.isfinite(v) for v in numbers):
                problems.append(f"{self.stem} reports hold non-finite numbers")
            self.sidecar = sidecar
        except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
            problems.append(f"{self.stem} reports unreadable: {exc}")
        self.ops.record(problems)

    def finish(self):
        if self.sidecar is None:
            return math.nan, {}
        reports = self.sidecar["reports"]
        em = [r["mean"] for r in reports if r["method"] == self.estimate_method]
        values = {
            f"{r['method']}@{r['param_name']}={r['param_value']!r}": r["values"]
            for r in reports
        }
        return sum(em) / len(em), values


class GaussianStudy(Study):
    name = "gaussian_study"
    stem = "gaussian"
    estimate_method = "lip_em"

    def setup(self, directory):
        self.dir = directory
        directory.mkdir(parents=True)
        self.config = directory / "config.json"
        replications = self.sizes.gaussian_replications
        self.config.write_text(
            json.dumps({"experiment": {"replications": replications}}), encoding="utf-8"
        )
        warm = directory / "warmup.json"
        warm.write_text(json.dumps({"experiment": {"replications": 1}}), encoding="utf-8")
        self.dispatch(self._argv(warm, directory / "warmup"))

    def _argv(self, config, out):
        return ["bench", "gaussian", "--config", str(config),
                "--seed", str(self.seed), "--out", str(out)]

    def round(self):
        self.dispatch(self._argv(self.config, self.dir / "reports"))


class TurbofanSynth(Study):
    name = "turbofan_synth"
    stem = "cmapss"
    estimate_method = "uniform_em"

    def __init__(self, *args):
        super().__init__(*args)
        self.synthetic_trajectory, self.write_cmapss_file = import_fd001_writer()

    def setup(self, directory):
        import numpy as np

        self.dir = directory
        directory.mkdir(parents=True)
        rng = np.random.default_rng(self.seed)
        lo, hi = self.sizes.lifetimes
        lifetimes = rng.integers(lo, hi + 1, size=self.sizes.engines)
        engines = {
            unit: self.synthetic_trajectory(rng, int(life))
            for unit, life in enumerate(lifetimes, start=1)
        }
        data = directory / "train_FD001.txt"
        self.write_cmapss_file(data, engines)
        # warm-up: parse the file and run one small spline EM from it
        lipem = self.lipem
        parsed = lipem.cli.ingest_cmapss(data)
        model = lipem.SplineGlmModel(np.linspace(0.0, 300.0, 5), noise_variance=4.0,
                                    ridge=1e-8)
        lipem.run_em([parsed[1], parsed[2], parsed[3]], model, [0.5, 0.5],
                     lipem.EmConfig(tau=1e-3))

    def round(self):
        self.dispatch([
            "bench", "cmapss", "--data", str(self.dir), "--lip", "uniform",
            "--engines", ",".join(str(e) for e in self.sizes.target_engines),
            "--cutoff", ",".join(repr(c) for c in self.sizes.cutoffs),
            "--out", str(self.dir / "reports"),
        ])


class ChoiceFit(Workload):
    name = "choice_fit"

    def setup(self, directory):
        import numpy as np

        self.dir = directory
        directory.mkdir(parents=True)
        rng = np.random.default_rng(self.seed)
        k = self.sizes.choice_sources
        # planted worths: the null at 0, a tenth of the sources relevant
        # (pi = 0.9) and the rest scattered around pi = 0.05
        alpha = np.concatenate(([0.0], np.log(0.05 / 0.95) + rng.normal(0.0, 0.5, size=k)))
        alpha[1 + rng.choice(k, size=max(1, k // 10), replace=False)] = np.log(0.9 / 0.1)
        self.alpha = ",".join(repr(float(a)) for a in alpha)
        self.records = directory / "records.txt"
        self.prior = directory / "lip.txt"
        warm_records = directory / "warmup_records.txt"
        self.dispatch(self._simulate_argv(200, warm_records))
        self.dispatch(self._fit_argv(warm_records, directory / "warmup_lip.txt"))

    def _simulate_argv(self, count, out):
        return ["simulate-oracle", f"--alpha={self.alpha}", "--sizes",
                self.sizes.choice_sizes, "--count", str(count),
                "--seed", str(self.seed), "--out", str(out)]

    def _fit_argv(self, records, out):
        return ["fit-lip", "--records", str(records), "--sources",
                str(self.sizes.choice_sources), "--out", str(out)]

    def round(self):
        self.dispatch(self._simulate_argv(self.sizes.records, self.records))
        self.prior_fit_s.append(self.dispatch(self._fit_argv(self.records, self.prior)))

    def check(self):
        self.ops.record(self.same_bytes("records and prior", [self.records, self.prior]))

    def finish(self):
        import numpy as np

        lip = self.lipem.lip
        try:
            records = lip.read_records(self.records)
            fitted = lip.Lip.read(self.prior)
        except (OSError, self.lipem.LipemError) as exc:
            self.ops.record([f"records or prior unreadable: {exc}"])
            return math.nan, {}
        if fitted.alpha is None or not np.all(np.isfinite(fitted.alpha)):
            self.ops.record(["fitted prior has no finite worth vector"])
            return math.nan, {}
        problems = []
        if len(records) != self.sizes.records:
            problems.append(f"expected {self.sizes.records} records, read {len(records)}")
        value, grad = lip.nll_objective(lip.WorthVector(fitted.alpha), records)
        tol = 1e-8  # the fit-lip default
        if float(np.max(np.abs(grad))) > tol:
            problems.append(f"fitted gradient norm {np.max(np.abs(grad)):.3e} > {tol}")
        # the same fit through the library, for its objective trace
        result = lip.minimize_worths(records, self.sizes.choice_sources)
        trace = np.asarray(result.objective_trace)
        # the line search accepts rises within 64 eps |f| of float noise
        slack = 64.0 * np.finfo(float).eps * np.maximum(1.0, np.abs(trace[:-1]))
        if np.any(np.diff(trace) > slack):
            problems.append("objective trace increases")
        if not np.array_equal(result.worths.alpha, fitted.alpha):
            problems.append("fit-lip prior differs from minimize_worths")
        self.ops.record(problems)
        return value / len(records), {"alpha": fitted.alpha.tolist()}


WORKLOADS = {w.name: w for w in (GaussianStudy, TurbofanSynth, ChoiceFit)}


def reference_problems(name: str, values: dict) -> list[str]:
    """Differences between the default seed's outputs and the reference."""
    path = REFERENCE_DIR / f"{name}.json"
    try:
        stored = json.loads(path.read_text(encoding="utf-8"))["values"]
    except (OSError, ValueError, KeyError) as exc:
        return [f"reference {path.name} unreadable: {exc}"]
    if sorted(stored) != sorted(values):
        return [f"reference cells differ: {sorted(set(stored) ^ set(values))}"]
    return [
        f"{key} differs from the reference by more than {REFERENCE_TOL}"
        for key, ref in stored.items()
        if len(values[key]) != len(ref)
        or any(not abs(a - b) <= REFERENCE_TOL * max(1.0, abs(b))
               for a, b in zip(values[key], ref))
    ]


# -- measurement --------------------------------------------------------------


def tail(samples: list[float]) -> tuple[float, float] | None:
    """Highest percentile with at least ten samples beyond it, and that
    percentile; None below 20 samples."""
    n = len(samples)
    if n < 20:
        return None
    return sorted(samples)[n - 11], 100.0 * (n - 10) / n


def lower_median_index(values: list[float]) -> int:
    return sorted(range(len(values)), key=values.__getitem__)[(len(values) - 1) // 2]


def run_rounds(workload: Workload, seconds: float, *patches) -> list[list[float]]:
    """Round times under each patch context in turn, cycling while the
    next cycle is expected to end in time; at least one cycle.

    Alternating untraced and traced rounds spreads slow drifts of the
    machine's speed over both alike. Each cycle is pinned to the next CPU
    of this process's set in turn: other tenants slow one CPU more than
    another, and the fastest round should come from the least loaded.
    """
    walls: list[list[float]] = [[] for _ in patches]
    cpus = sorted(os.sched_getaffinity(0))
    begin = perf_counter()
    try:
        for cycle_no in itertools.count():
            os.sched_setaffinity(0, {cpus[cycle_no % len(cpus)]})
            for installed, times in zip(patches, walls):
                with installed():
                    t0 = perf_counter()
                    workload.round()
                    times.append(perf_counter() - t0)
                workload.check()
            cycle = sum(statistics.median(times) for times in walls)
            if perf_counter() - begin + cycle > seconds:
                return walls
    finally:
        os.sched_setaffinity(0, cpus)


def per_layer_metrics(summary, counters, wall_s, untraced_wall_s, import_s):
    """The per-layer metric values of one traced round."""
    out: dict[str, float] = {}
    for name, stats in summary.items():
        out[f"{name}.calls"] = stats["calls"]
        out[f"{name}.self_s"] = stats["self_s"]
    out.update(counters)
    runs = summary["em.run_em"]["calls"]
    out["em.run_em.converged_ratio"] = out.pop("em.run_em.converged", 0.0) / runs if runs else 0.0
    # objective evaluations after the first of each minimize_worths call
    evaluations = (
        summary["lip.nll_objective"]["calls"] - summary["lip.minimize_worths"]["calls"]
    )
    newton = out.get("lip.minimize_worths.iterations", 0.0)
    out["lip.line_search.accept_ratio"] = newton / evaluations if evaluations > 0 else 0.0
    out["import.lipem.self_s"] = import_s
    out["trace.wall_s"] = wall_s
    out["trace.unwrapped_s"] = wall_s - sum(s["self_s"] for s in summary.values())
    out["trace.overhead_ratio"] = wall_s / untraced_wall_s - 1.0
    return out


def measure(args, lipem, import_samples, sizes: Sizes) -> tuple[dict, dict, Ops]:
    """Set up, run the rounds and the checks; return every metric."""
    ops = Ops()
    import_s = statistics.median(import_samples)
    work = OUT_DIR / f"work-{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        workload = WORKLOADS[args.workload](lipem, sizes, args.seed, ops)
        setup_times = []
        for i in range(sizes.setups):
            t0 = perf_counter()
            workload.setup(work / f"setup{i}")
            setup_times.append(perf_counter() - t0)

        timer = EmTimer(lipem.bench, ops)
        if not args.trace:
            [walls] = run_rounds(workload, args.seconds, timer.installed)
            per_layer = None
        else:
            from tracer import Tracer

            tracer = Tracer()
            traced = []

            @contextlib.contextmanager
            def traced_patches():
                tracer.counters.clear()
                first = tracer.mark()
                with tracer.installed(), timer.installed(recording=False):
                    yield
                traced.append((first, tracer.mark(), dict(tracer.counters)))

            walls, traced_walls = run_rounds(
                workload, args.seconds, timer.installed, traced_patches
            )
            pick = lower_median_index(traced_walls)
            first, last, counters = traced[pick]
            per_layer = per_layer_metrics(
                tracer.summary(first, last), counters, traced_walls[pick],
                statistics.median(walls), import_s,
            )
            tracer.write(OUT_DIR / f"spans_{args.workload}.npz")
        em_samples = timer.samples

        estimate_err, values = workload.finish()
        if args.write_reference:
            REFERENCE_DIR.mkdir(exist_ok=True)
            (REFERENCE_DIR / f"{workload.name}.json").write_text(
                json.dumps({"seed": DEFAULT_SEED, "values": values}, indent=1,
                           sort_keys=True) + "\n",
                encoding="utf-8",
            )
        elif args.seed == DEFAULT_SEED and not args.smoke:
            ops.record(reference_problems(workload.name, values))
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        shutil.rmtree(work, ignore_errors=True)

    fits = workload.prior_fit_s
    em_tail = tail(em_samples)
    wall_tail = tail(walls)
    # name -> (value, unit, samples), or None where the workload has none
    metrics = {
        "setup_s": (import_s + statistics.median(setup_times), "s", len(setup_times)),
        "wall_s": (min(walls), "s", len(walls)),
        "wall_p50_s": (statistics.median(walls), "s", len(walls)),
        "wall_tail_s": (wall_tail[0], "s", len(walls)) if wall_tail else None,
        "em_run_p50_ms": (statistics.median(em_samples) * 1e3, "ms", len(em_samples))
        if em_samples else None,
        "em_run_tail_ms": (em_tail[0] * 1e3, "ms", len(em_samples)) if em_tail else None,
        "prior_fit_s": (statistics.median(fits), "s", len(fits)) if fits else None,
        "estimate_err": (estimate_err, "1", 1),
        "ops_failed_ratio": (ops.failed / max(ops.attempted, 1), "ratio", ops.attempted),
        "peak_rss_mb": (peak_rss_mb, "MB", 1),
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "sizes": sizes.__dict__,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "failures": ops.failures,
        "import_samples_s": import_samples,
        "setup_samples_s": setup_times,
        "round_walls_s": walls,
        "em_run_tail_percentile": em_tail[1] if em_tail else None,
        "wall_tail_percentile": wall_tail[1] if wall_tail else None,
        "metrics": {
            name: m and {"value": m[0], "unit": m[1], "samples": m[2]}
            for name, m in metrics.items()
        },
    }
    if per_layer is not None:
        record["per_layer"] = per_layer
        record["traced_round_walls_s"] = traced_walls
    return metrics, record, ops


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for smoke_check.py")
    parser.add_argument(
        "--write-reference", action="store_true",
        help=f"store the outputs of --seed {DEFAULT_SEED} as the reference",
    )
    args = parser.parse_args(argv)
    if args.write_reference and (args.seed != DEFAULT_SEED or args.smoke):
        parser.error(f"--write-reference needs --seed {DEFAULT_SEED} and full sizes")

    nproc = len(os.sched_getaffinity(0))
    pin_blas_threads()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    OUT_DIR.mkdir(exist_ok=True)
    sizes = SMOKE if args.smoke else FULL
    try:
        lipem, import_samples = import_lipem(sizes.import_children)
        metrics, record, ops = measure(args, lipem, import_samples, sizes)
    except HarnessError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    record["environment"] = environment(nproc)
    (OUT_DIR / f"BENCH_{args.workload}.json").write_text(
        json.dumps(record, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )

    print(f"environment: {json.dumps(record['environment'], sort_keys=True)}")
    for name, m in metrics.items():
        if m is None:
            print(f"{name:>18}  n/a on {args.workload}")
            continue
        percentile = {"em_run_tail_ms": "em_run_tail_percentile",
                      "wall_tail_s": "wall_tail_percentile"}.get(name)
        at = f" at p{record[percentile]:.4g}" if percentile else ""
        print(f"{name:>18}  {m[0]:.6g} {m[1]}{at}  n={m[2]}")
    if args.trace:
        chosen = {m["name"]: (record["per_layer"].get(m["name"], 0.0), m["unit"])
                  for m in spec["per_layer"]}
    else:
        chosen = {m["name"]: (metrics[m["name"]][0], m["unit"]) for m in spec["end_to_end"]}
    print(json.dumps({
        "correct": ops.failed == 0,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in chosen.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
