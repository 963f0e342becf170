"""Command-line front end: config loading, dispatch, reports.

Exit codes: 0 success, 2 usage errors (argparse), 3 configuration
validation failures (the offending key is named), 1 anything else, with
a single machine-parseable ``error: <kind>: <message>`` line on stderr.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import json
import math
import sys
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from . import bench
from .bench import (
    BenchReport,
    GaussianExperimentConfig,
    HierarchicalSpec,
    NullGen,
    check_seed,
    cmapss_experiment,
    consistency_check,
    dichotomy_check,
    gaussian_experiment,
    oracle_mse_check,
)
from .em import EmConfig, NullSpec, run_em, write_em_report
from .errors import InvalidConfigurationError, LipemError, ParseError
from .files import ingest_cmapss, load_dataset, read_text, write_text_atomic
from .likelihood import GaussianMeanModel, SplineGlmModel
from .lip import Lip, WorthVector, _read_queries, _simulate, fit_lip, write_records

__all__ = [
    "RunConfig",
    "dispatch",
    "main",
    "ingest_cmapss",
    "load_dataset",
    "write_report",
]

def _is_number(value) -> bool:
    # finite only: JSON reads 1e400 as inf and NaN as nan, and an
    # integer beyond the float range overflows in isfinite
    try:
        return (isinstance(value, float) or _is_integer(value)) and math.isfinite(value)
    except OverflowError:
        return False


def _is_integer(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_string(value) -> bool:
    return isinstance(value, str)


def _list_of(test):
    return lambda value: isinstance(value, list) and all(map(test, value))


def _or_null(test):
    return lambda value: value is None or test(value)


_is_numbers = _list_of(_is_number)

# value kinds as JSON delivers them: (noun for the error, test)
NUMBER = ("a number", _is_number)
INTEGER = ("an integer", _is_integer)
STRING = ("a string", _is_string)
NUMBERS = ("a list of numbers", _is_numbers)
INTEGERS = ("a list of integers", _list_of(_is_integer))
NULL_TABLE = (
    "a list of numbers or an object mapping source indices to numbers",
    lambda value: _is_numbers(value)
    or (
        isinstance(value, dict)
        and all(k.isdecimal() and _is_number(v) for k, v in value.items())
    ),
)
# the experiment section follows GaussianExperimentConfig's annotations
_ANNOTATED_KINDS = {
    "int": INTEGER,
    "float": NUMBER,
    "str": STRING,
    "tuple[int, ...]": INTEGERS,
}

SECTION_SCHEMAS: Mapping[str, Mapping[str, tuple]] = {
    "em": {
        "tau": NUMBER,
        "nu": NUMBER,
        "variant": STRING,
        "null_kind": STRING,
        "null_table": NULL_TABLE,
        "max_iters": INTEGER,
        "tol": NUMBER,
        "patience": INTEGER,
    },
    "model": {
        "kind": STRING,
        "covariance": (
            "a number or a list of lists of numbers",
            lambda value: _is_number(value) or _list_of(_is_numbers)(value),
        ),
        "knots": NUMBERS,
        "noise_variance": NUMBER,
        "ridge": NUMBER,
    },
    "generator": {
        "n_sources": INTEGER,
        "relevant": INTEGERS,
        "theta0": NUMBERS,
        "tau": NUMBER,
        "sigma": NUMBER,
        "n_target": INTEGER,
        "n_source": INTEGER,
        "seed": INTEGER,
        "offset": (
            "a number, a list of numbers or null",
            _or_null(lambda value: _is_number(value) or _is_numbers(value)),
        ),
        "shell": (
            "a list of two numbers",
            lambda value: _is_numbers(value) and len(value) == 2,
        ),
        "spread": ("a number or null", _or_null(_is_number)),
    },
    "experiment": {
        f.name: _ANNOTATED_KINDS[f.type]
        for f in dataclasses.fields(GaussianExperimentConfig)
    },
    "lip": {"p0": NUMBER, "eps": NUMBER, "tol": NUMBER, "max_iters": INTEGER},
    "oracle": {"replications": INTEGER, "taus": NUMBERS, "n_weight_vectors": INTEGER},
    "dichotomy": {"n_sweep": INTEGERS, "priors": NUMBERS, "replications": INTEGER},
    "consistency": {"n0_sweep": INTEGERS, "replications": INTEGER, "nu": NUMBER},
    "cmapss": {
        "cutoffs": NUMBERS,
        "engines": INTEGERS,
        "tau": NUMBER,
        "nu": NUMBER,
        "ridge": NUMBER,
        "p0": NUMBER,
        "knots": NUMBERS,
    },
}


@dataclasses.dataclass(frozen=True)
class RunConfig:
    """Validated key-value document grouped into known sections.

    ``load`` checks every key's name and the JSON type of its value
    against ``SECTION_SCHEMAS``; ranges are checked where the values
    are used.
    """

    sections: Mapping[str, Mapping[str, object]] = dataclasses.field(
        default_factory=dict
    )

    @classmethod
    def load(cls, path: str | None) -> "RunConfig":
        if path is None:
            return cls({})
        try:
            raw = json.loads(Path(path).read_text(encoding="utf-8"))
        except OSError as exc:
            raise InvalidConfigurationError(
                f"cannot read config file {path}: {exc}", key="config"
            ) from exc
        except ValueError as exc:  # not UTF-8, or not JSON
            raise InvalidConfigurationError(
                f"config file {path} is not valid JSON: {exc}", key="config"
            ) from exc
        if not isinstance(raw, dict):
            raise InvalidConfigurationError(
                "config document must be a JSON object", key="config"
            )
        for section, body in raw.items():
            if section not in SECTION_SCHEMAS:
                raise InvalidConfigurationError(
                    f"unknown config section {section!r}", key=section
                )
            if not isinstance(body, dict):
                raise InvalidConfigurationError(
                    f"section {section!r} must be an object", key=section
                )
            for k, value in body.items():
                if k not in SECTION_SCHEMAS[section]:
                    raise InvalidConfigurationError(
                        f"unknown key {k!r} in section {section!r}",
                        key=f"{section}.{k}",
                    )
                noun, test = SECTION_SCHEMAS[section][k]
                if not test(value):
                    raise InvalidConfigurationError(
                        f"{section}.{k} must be {noun}, got {value!r}",
                        key=f"{section}.{k}",
                    )
        return cls(raw)

    def section(self, name: str) -> dict:
        return dict(self.sections.get(name, {}))


@contextlib.contextmanager
def _keyed(section: str = "", **aliases: str):
    """Name a faulty key, renamed by ``aliases``, as ``<section>.<key>``
    when it belongs to ``section``, else as renamed (a flag); other
    errors pass through unchanged."""
    try:
        yield
    except InvalidConfigurationError as exc:
        key = aliases.get(exc.key, exc.key)
        if key in SECTION_SCHEMAS.get(section, ()):
            key = f"{section}.{key}"
        elif exc.key not in aliases:
            raise
        raise InvalidConfigurationError(str(exc.args[0]), key=key) from exc


def _fmt(value: float) -> str:
    return f"{value:.12g}"


def write_report(
    reports: Sequence[BenchReport],
    out_dir,
    stem: str,
    *,
    config_echo: Mapping | None = None,
    curves: Mapping | None = None,
) -> list[Path]:
    """Emit the CSV table, JSON sidecar, and optional plot-data CSV.

    Deterministic: rows are sorted, JSON keys are sorted, numbers are
    rendered with a fixed format, and nothing time-dependent is
    written, so identical inputs give byte-identical files. Each file
    is replaced in one step (see ``write_text_atomic``).
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = []

    param_names = {r.param_name for r in reports}
    param_col = param_names.pop() if len(param_names) == 1 else "param"
    csv_path = out_dir / f"{stem}.csv"
    lines = [f"method,{param_col},mean,stderr,replications"]
    for r in sorted(reports, key=lambda r: (r.method, r.param_value)):
        lines.append(
            f"{r.method},{_fmt(r.param_value)},{_fmt(r.mean)},"
            f"{_fmt(r.stderr)},{r.replications}"
        )
    write_text_atomic(csv_path, "\n".join(lines) + "\n")
    paths.append(csv_path)

    sidecar = {
        "config": config_echo if config_echo is not None else {},
        "reports": [
            {
                "method": r.method,
                "metric": r.metric,
                "param_name": r.param_name,
                "param_value": r.param_value,
                "mean": r.mean,
                "stderr": r.stderr,
                "replications": r.replications,
                "values": list(r.values),
            }
            for r in sorted(reports, key=lambda r: (r.method, r.param_value))
        ],
    }
    json_path = out_dir / f"{stem}.json"
    write_text_atomic(json_path, json.dumps(sidecar, sort_keys=True, indent=2) + "\n")
    paths.append(json_path)

    if curves:
        curve_path = out_dir / f"{stem}_curves.csv"
        names = sorted(curves["series"])
        header = "x," + ",".join(names)
        rows = [header]
        # Python floats, not numpy scalars: formatting them is cheaper
        columns = [
            np.asarray(values, dtype=float).tolist()
            for values in (curves["x"], *(curves["series"][n] for n in names))
        ]
        rows += [",".join(map(_fmt, row)) for row in zip(*columns, strict=True)]
        write_text_atomic(curve_path, "\n".join(rows) + "\n")
        paths.append(curve_path)
    return paths


def _echo(obj) -> dict:
    out = dataclasses.asdict(obj)

    def clean(v):
        if isinstance(v, dict):
            return {str(k): clean(x) for k, x in v.items()}
        if isinstance(v, (list, tuple)):
            return [clean(x) for x in v]
        if isinstance(v, np.generic):
            return v.item()
        return v

    return clean(out)


def _build_em_config(section: dict) -> EmConfig:
    body = dict(section)
    null_kind = body.pop("null_kind", "empirical_bayes_mixture")
    body["null_spec"] = NullSpec(null_kind, body.pop("null_table", None))
    with _keyed("em"):
        return EmConfig(**body)


def _build_model(section: dict, width: int):
    kind = section.get("kind", "gaussian")
    if kind == "gaussian":
        with _keyed("model"):
            return GaussianMeanModel(width, covariance=section.get("covariance", 1.0))
    if kind == "spline_glm":
        if "knots" not in section:
            raise InvalidConfigurationError(
                "spline_glm model needs knots", key="model.knots"
            )
        with _keyed("model"):
            return SplineGlmModel(
                np.asarray(section["knots"], dtype=float),
                noise_variance=section.get("noise_variance", 1.0),
                ridge=section.get("ridge", 0.0),
            )
    raise InvalidConfigurationError(
        f"unknown model kind {kind!r}", key="model.kind"
    )


def _build_generator(section: dict, seed: int | None) -> HierarchicalSpec:
    body = dict(section)
    null_kwargs = {k: body.pop(k) for k in ("offset", "shell", "spread") if k in body}
    if seed is not None:
        body["seed"] = seed
    with _keyed("generator"):
        return HierarchicalSpec(null_gen=NullGen(**null_kwargs), **body)


# argparse types; argparse names them in its usage error on a bad value.
# An empty field is a bad value, so an empty flag never reads as not given
def number_list(text: str) -> list[float]:
    return [float(v) for v in text.split(",")]


def integer_list(text: str) -> list[int]:
    return [int(v) for v in text.split(",")]


def _read_summaries(path) -> dict[int, str]:
    """The elicitation's JSON object mapping source indices to text."""
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
        if not isinstance(raw, dict) or not raw:
            raise ValueError("expected a non-empty object")
        return {int(k): str(v) for k, v in raw.items()}
    except ValueError as exc:  # not UTF-8, not JSON, or a non-integer key
        raise ParseError(
            f"summaries file {path} is not a JSON object mapping source "
            f"indices to text: {exc}"
        ) from exc


def _cmd_fit_lip(args, cfg: RunConfig) -> int:
    queries = _read_queries(args.records)
    with _keyed("lip", n_sources="sources"):
        worths, lip = fit_lip(queries, args.sources, **cfg.section("lip"))
    lip.write(args.out)
    print(f"wrote {args.out} ({lip.n_sources} sources)")
    return 0


def _cmd_simulate_oracle(args, cfg: RunConfig) -> int:
    rng = np.random.default_rng(args.seed)
    queries = _simulate(WorthVector(args.alpha), args.sizes, args.count, rng)
    write_records(args.out, queries)
    print(f"wrote {args.out} ({queries.chosen.size} records)")
    return 0


def _cmd_elicit(args, cfg: RunConfig) -> int:
    summaries = _read_summaries(args.summaries)
    # with no --sources, K is the largest index the summaries name
    n_sources = max(summaries) if args.sources is None else args.sources
    if n_sources < 1:
        raise InvalidConfigurationError(
            f"the source count K must be at least 1, got {n_sources}",
            key="summaries" if args.sources is None else "sources",
        )
    if args.context_file:
        context = read_text(args.context_file)
    else:
        context = args.context or ""
    if not context.strip():
        raise InvalidConfigurationError(
            "an elicitation needs a target description; pass --context "
            "or --context-file",
            key="context",
        )
    from . import judge  # the network stack loads only for this command

    transport = judge.HttpTransport(
        judge.TransportConfig(model=args.model, temperature=args.temperature)
    )
    replay = judge.ReplayLog(args.replay) if args.replay else None
    rng = np.random.default_rng(args.seed)
    with _keyed(n_sources="sources"):
        records, telemetry = judge.elicit_records(
            transport,
            context,
            summaries,
            n_sources,
            args.sizes,
            args.count,
            rng,
            replay=replay,
            jobs=args.jobs,
        )
    write_records(args.out, records)
    print(
        f"wrote {args.out} ({len(records)} records; "
        f"queries={telemetry.queries} cache_hits={telemetry.cache_hits} "
        f"retries={telemetry.retries} malformed={telemetry.malformed})"
    )
    return 0


def _cmd_run_em(args, cfg: RunConfig) -> int:
    target = load_dataset(args.target)
    sources = [load_dataset(p) for p in args.sources]
    for path, source in zip(args.sources, sources):
        # an empty source is dropped by the EM, whatever its width
        if len(source) and source.width != target.width:
            raise ParseError(
                f"dataset file {path} has {source.width} columns; the target "
                f"file {args.target} has {target.width}"
            )
    model = _build_model(cfg.section("model"), target.width)
    if isinstance(model, SplineGlmModel) and target.width != 2:
        raise ParseError(
            f"dataset file {args.target} has {target.width} columns; a "
            "spline_glm model reads 2 (input, response)"
        )
    em_config = _build_em_config(cfg.section("em"))
    if args.lip == "uniform":
        # a flat prior reads only p0 from the lip section
        p0 = {k: v for k, v in cfg.section("lip").items() if k == "p0"}
        with _keyed("lip"):
            pi = Lip.uniform(len(sources), **p0).pi
    else:
        lip = Lip.read(args.lip)
        if lip.n_sources != len(sources):
            raise InvalidConfigurationError(
                f"prior covers {lip.n_sources} sources but {len(sources)} "
                "source datasets were given",
                key="lip",
            )
        pi = lip.pi
    state, report = run_em([target, *sources], model, pi, em_config)
    write_em_report(report, args.out)
    weights = " ".join(_fmt(w) for w in state.weights)
    print(
        f"wrote {args.out} (converged={report.converged} "
        f"iterations={report.iterations} weights=[{weights}])"
    )
    return 0


def _cmd_bench_gaussian(args, cfg: RunConfig) -> int:
    body = cfg.section("experiment")
    if args.seed is not None:
        body["seed"] = args.seed
    with _keyed("experiment"):
        config = GaussianExperimentConfig(**body)
        reports, curves = gaussian_experiment(config)
    paths = write_report(
        reports, args.out, "gaussian", config_echo=_echo(config), curves=curves
    )
    for p in paths:
        print(p)
    return 0


def _cmd_bench_cmapss(args, cfg: RunConfig) -> int:
    body = cfg.section("cmapss")
    # the flags take precedence over the section
    if args.cutoff:
        body["cutoffs"] = args.cutoff
    if args.engines:
        body["engines"] = args.engines
    body.setdefault("cutoffs", list(bench.CMAPSS_CUTOFFS))
    body.setdefault("engines", list(bench.CMAPSS_ENGINES))
    with _keyed("cmapss"):
        reports, curves = cmapss_experiment(args.data, args.lip, **body)
    echo = {"lip_source": args.lip, **body}
    paths = write_report(
        reports, args.out, "cmapss", config_echo=echo, curves=curves
    )
    for p in paths:
        print(p)
    return 0


def _cmd_bench_oracle_mse(args, cfg: RunConfig) -> int:
    body = cfg.section("oracle")
    taus = body.pop("taus", [0.0, 0.1])
    with _keyed("oracle"):
        bench._check_sweep(taus, "taus")
    gen = {"relevant": bench.ORACLE_RELEVANT, **cfg.section("generator")}
    spec = _build_generator(gen, args.seed)
    with _keyed("oracle", tau="taus"):
        specs = [dataclasses.replace(spec, tau=float(tau)) for tau in taus]
    records = []
    for tau_spec in specs:
        with _keyed("oracle", tau="taus"):
            records.append(oracle_mse_check(tau_spec, **body))
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    json_path = out_dir / "oracle_mse.json"
    write_text_atomic(
        json_path,
        json.dumps([_echo(r) for r in records], sort_keys=True, indent=2) + "\n",
    )
    csv_path = out_dir / "oracle_mse.csv"
    lines = ["method,tau,mean,stderr,replications"]
    for r in records:
        lines.append(f"closed_form,{_fmt(r.tau)},{_fmt(r.closed_form)},0,0")
        lines.append(
            f"mc_estimate,{_fmt(r.tau)},{_fmt(r.mc_mean)},"
            f"{_fmt(r.mc_stderr)},{r.replications}"
        )
        for i, chk in enumerate(r.fixed_weight_checks, start=1):
            lines.append(
                f"fixed_w{i}_predicted,{_fmt(r.tau)},{_fmt(chk.predicted)},0,0"
            )
            lines.append(
                f"fixed_w{i}_mc,{_fmt(r.tau)},{_fmt(chk.mc_mean)},"
                f"{_fmt(chk.mc_stderr)},{r.replications}"
            )
    write_text_atomic(csv_path, "\n".join(lines) + "\n")
    print(csv_path)
    print(json_path)
    for r in records:
        print(
            f"tau={_fmt(r.tau)} closed_form={_fmt(r.closed_form)} "
            f"mc={_fmt(r.mc_mean)} z={_fmt(r.z_score)}"
        )
    return 0


def _cmd_bench_check(check, args, cfg: RunConfig) -> int:
    """``bench dichotomy`` and ``bench consistency``: one sweep, one report."""
    name = args.bench_command
    body = cfg.section(name)
    gen = cfg.section("generator")
    # the generator section when given, else the checks' shared default
    if gen:
        spec = _build_generator(gen, args.seed)
    elif args.seed is None:
        spec = bench.SEPARATED_SPEC
    else:
        spec = dataclasses.replace(bench.SEPARATED_SPEC, seed=args.seed)
    # both checks score under the mixture null, which needs two sources
    with _keyed(name, n_sources="generator.n_sources"):
        reports = check(spec, **body)
    paths = write_report(
        reports, args.out, name, config_echo={"spec": _echo(spec), **body}
    )
    for p in paths:
        print(p)
    return 0


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as one ``error: usage: ...`` line, the form
    every other failure takes; ``-h`` still prints the full usage."""

    def error(self, message):
        self.exit(2, f"error: usage: {self.prog}: {message}\n")


@functools.cache  # prog is fixed, so one parser serves every call
def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="lipem",
        description="Prior-aided EM for multi-source parameter estimation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(parent, name, help, handler, out, sections=()):
        # ``sections`` lists the config sections the handler reads; a
        # command without any takes no --config
        p = parent.add_parser(name, help=help)
        if sections:
            p.add_argument(
                "--config", default=None,
                help=f"JSON config file with sections: {', '.join(sections)}",
            )
        p.add_argument("--out", default=out)
        p.set_defaults(handler=handler, sections=sections)
        return p

    p = command(sub, "fit-lip", "fit a prior from choice records", _cmd_fit_lip,
                "lip.txt", ("lip",))
    p.add_argument("--records", required=True)
    p.add_argument("--sources", type=int, required=True)

    p = command(sub, "simulate-oracle", "simulate judge records",
                _cmd_simulate_oracle, "records.txt")
    p.add_argument("--alpha", type=number_list, required=True,
                   help="comma-separated worths, null first")
    p.add_argument("--count", type=int, default=200)
    p.add_argument("--sizes", type=integer_list, default="3,4,5")
    p.add_argument("--seed", type=int, default=42)

    p = command(sub, "elicit", "query the live judge for records", _cmd_elicit,
                "records.txt")
    p.add_argument("--summaries", required=True, help="JSON map index -> text")
    p.add_argument("--context", default=None)
    p.add_argument("--context-file", default=None)
    p.add_argument("--sources", type=int, default=None)
    p.add_argument("--count", type=int, default=200)
    p.add_argument("--sizes", type=integer_list, default="3,4,5")
    p.add_argument("--replay", default=None, help="JSONL replay cache path")
    p.add_argument("--model", default="")
    p.add_argument("--temperature", type=float, default=0.0)
    p.add_argument("--jobs", type=int, default=1, help="concurrent judge queries")
    p.add_argument("--seed", type=int, default=42)

    p = command(sub, "run-em", "run EM on dataset files", _cmd_run_em,
                "em_report.txt", ("em", "model", "lip"))
    p.add_argument("--target", required=True)
    p.add_argument("--sources", nargs="+", required=True)
    p.add_argument("--lip", default="uniform", help="'uniform' or a prior file")

    b = sub.add_parser("bench", help="benchmark drivers")
    bsub = b.add_subparsers(dest="bench_command", required=True)

    p = command(bsub, "gaussian", "scarce-target Gaussian study",
                _cmd_bench_gaussian, "reports", ("experiment",))
    p.add_argument("--seed", type=int, default=None)

    p = command(bsub, "cmapss", "turbofan sensor prediction study",
                _cmd_bench_cmapss, "reports", ("cmapss",))
    p.add_argument("--data", required=True, help="directory with train_FD001.txt")
    p.add_argument(
        "--lip", default="uniform", help="'uniform', 'fast-decay', or a prior file"
    )
    p.add_argument("--cutoff", type=number_list, help="comma-separated cutoffs")
    p.add_argument("--engines", type=integer_list, help="comma-separated engine ids")

    p = command(bsub, "oracle-mse", "closed-form MSE identity check",
                _cmd_bench_oracle_mse, "reports", ("oracle", "generator"))
    p.add_argument("--seed", type=int, default=None)

    for name, help, check in (
        ("dichotomy", "weight commitment sweep", dichotomy_check),
        ("consistency", "target-size consistency sweep", consistency_check),
    ):
        p = command(bsub, name, help, functools.partial(_cmd_bench_check, check),
                    "reports", (name, "generator"))
        p.add_argument("--seed", type=int, default=None)

    return parser


def dispatch(argv: Sequence[str] | None = None) -> int:
    """Parse arguments and run one subcommand, mapping errors to codes."""
    parser = _build_parser()
    try:
        args = parser.parse_args(list(argv) if argv is not None else None)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        cfg = RunConfig.load(getattr(args, "config", None))
        for section in cfg.sections:
            if section not in args.sections:
                raise InvalidConfigurationError(
                    f"this command reads no {section!r} section; it reads "
                    f"{', '.join(args.sections)}",
                    key=section,
                )
        # HierarchicalSpec and GaussianExperimentConfig check the seed they
        # are given too, but an error from there names the config section
        # the flag was copied into; a --seed flag is named `seed`
        if getattr(args, "seed", None) is not None:
            check_seed(args.seed)
        return args.handler(args, cfg)
    except InvalidConfigurationError as exc:
        line = f"error: {exc}"
        if exc.key is not None:  # a JSON key may be the empty string
            # a control character in a JSON key is escaped as in a repr,
            # so the error stays on one line
            key = "".join(c if c.isprintable() else repr(c)[1:-1] for c in exc.key)
            line += f" [key: {key}]"
        print(line, file=sys.stderr)
        return 3
    except LipemError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: io_error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(dispatch())


if __name__ == "__main__":
    main()
