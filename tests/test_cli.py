"""End-to-end tests for the command-line interface.

Every subcommand is exercised through dispatch() so the exit-code
contract is what real shells observe: 0 success, 2 usage, 3 bad
configuration with the offending key named on stderr, 1 otherwise.
"""

import dataclasses
import json
import warnings
from pathlib import Path

import numpy as np
import pytest

from lipem import cli
from lipem.bench import (
    SEPARATED_SPEC,
    BenchReport,
    consistency_check,
    dichotomy_check,
    fast_decay_lip,
)
from lipem.cli import (
    RunConfig,
    dispatch,
    ingest_cmapss,
    load_dataset,
    write_report,
)
from lipem.errors import (
    DataNotFoundError,
    InvalidConfigurationError,
    ParseError,
)
from lipem.lip import (
    Lip,
    WorthVector,
    fit_lip,
    read_records,
    simulate_elicitation,
    write_records,
)

REFERENCE_DIR = Path(__file__).resolve().parents[1] / "benchmarks" / "reference"


class TestRunConfig:
    def test_no_path_gives_empty_config(self):
        cfg = RunConfig.load(None)
        assert cfg.section("em") == {}

    def test_known_sections_load(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"em": {"tau": 0.5}, "lip": {"p0": 0.02}}))
        cfg = RunConfig.load(str(path))
        assert cfg.section("em") == {"tau": 0.5}
        assert cfg.section("lip") == {"p0": 0.02}

    def test_unknown_section_names_itself(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"emm": {}}))
        with pytest.raises(InvalidConfigurationError) as err:
            RunConfig.load(str(path))
        assert err.value.key == "emm"

    def test_unknown_key_names_section_dot_key(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"em": {"learning_rate": 0.1}}))
        with pytest.raises(InvalidConfigurationError) as err:
            RunConfig.load(str(path))
        assert err.value.key == "em.learning_rate"

    def test_malformed_json_rejected(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("{not json")
        with pytest.raises(InvalidConfigurationError) as err:
            RunConfig.load(str(path))
        assert err.value.key == "config"

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(InvalidConfigurationError) as err:
            RunConfig.load(str(tmp_path / "absent.json"))
        assert err.value.key == "config"

    def test_non_object_document_rejected(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("[1, 2]")
        with pytest.raises(InvalidConfigurationError):
            RunConfig.load(str(path))

    @pytest.mark.parametrize(
        "doc, key",
        [
            ({"experiment": {"replications": "3"}}, "experiment.replications"),
            ({"experiment": {"dims": 1}}, "experiment.dims"),
            ({"dichotomy": {"n_sweep": 10}}, "dichotomy.n_sweep"),
            ({"consistency": {"nu": None}}, "consistency.nu"),
            ({"oracle": {"taus": [0.0, "0.1"]}}, "oracle.taus"),
            ({"generator": {"theta0": 0.5}}, "generator.theta0"),
            ({"generator": {"shell": [3.0]}}, "generator.shell"),
            ({"model": {"covariance": "1"}}, "model.covariance"),
            ({"cmapss": {"engines": [1.5]}}, "cmapss.engines"),
            ({"em": {"init_at_target_mle": "yes"}}, "em.init_at_target_mle"),
            ({"em": {"null_table": {"one": -1.0}}}, "em.null_table"),
            ({"lip": {"p0": True}}, "lip.p0"),
        ],
    )
    def test_mistyped_value_names_section_dot_key(self, tmp_path, doc, key):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(InvalidConfigurationError) as err:
            RunConfig.load(str(path))
        assert err.value.key == key

    def test_well_typed_values_load(self, tmp_path):
        doc = {
            "em": {"tau": 1, "null_table": {"1": -2.5}},
            "model": {"covariance": [[1.0, 0.0], [0.0, 2]]},
            "generator": {"offset": None, "shell": [3, 6.5], "theta0": [0.0]},
            "experiment": {"dims": [1, 2], "sigma": 2},
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        assert RunConfig.load(str(path)).sections == doc

    def test_non_utf8_file_rejected(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_bytes(b'{"lip": {"p0": 0.1}}\xff')
        with pytest.raises(InvalidConfigurationError) as err:
            RunConfig.load(str(path))
        assert err.value.key == "config"

    def test_null_table_key_must_be_decimal(self, tmp_path):
        # "\u00b2" (superscript two) is a digit to str.isdigit but not to int()
        path = tmp_path / "cfg.json"
        table = {"\u00b2": 1.0}
        path.write_text(json.dumps({"em": {"null_kind": "fixed", "null_table": table}}))
        with pytest.raises(InvalidConfigurationError) as err:
            RunConfig.load(str(path))
        assert err.value.key == "em.null_table"

    def test_non_object_section_rejected(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"em": [1]}))
        with pytest.raises(InvalidConfigurationError) as err:
            RunConfig.load(str(path))
        assert err.value.key == "em"


class TestLoadDataset:
    def test_matrix_round_trip(self, tmp_path):
        rng = np.random.default_rng(42)
        arr = rng.normal(size=(7, 2))
        path = tmp_path / "data.txt"
        np.savetxt(path, arr)
        data = load_dataset(path)
        np.testing.assert_allclose(data.points, arr, rtol=1e-12)

    def test_single_column_promoted(self, tmp_path):
        path = tmp_path / "col.txt"
        np.savetxt(path, np.arange(5.0))
        assert load_dataset(path).points.shape == (5, 1)

    def test_non_numeric_raises_parse_error(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("1.0 2.0\nfoo 3.0\n")
        with pytest.raises(ParseError):
            load_dataset(path)


class TestIngestCmapss:
    def test_fixture_engines_and_ordering(self, cmapss_dir):
        with pytest.warns(RuntimeWarning, match="expected 100 engines"):
            engines = ingest_cmapss(cmapss_dir / "train_FD001.txt")
        assert sorted(engines) == [1, 2, 3, 4, 5, 6]
        assert len(engines[1]) == 60
        assert len(engines[4]) == 120
        for data in engines.values():
            cycles = data.points[:, 0]
            assert np.all(np.diff(cycles) > 0)

    def test_sensor_nine_is_fourteenth_column(self, tmp_path):
        # unit 1, cycle 1, 3 settings, then sensors 1..21: sensor 9 sits
        # at whitespace column 14 (index 13)
        fields = [1, 1, 0.1, 0.2, 0.3] + [100 + s for s in range(1, 22)]
        path = tmp_path / "one.txt"
        path.write_text(" ".join(str(v) for v in fields) + "\n")
        with pytest.warns(RuntimeWarning):
            engines = ingest_cmapss(path)
        np.testing.assert_array_equal(engines[1].points, [[1.0, 109.0]])

    def test_wrong_column_count_reports_line(self, tmp_path):
        good = " ".join(["1"] * 26)
        bad = " ".join(["1"] * 25)
        path = tmp_path / "trunc.txt"
        path.write_text(good + "\n" + bad + "\n")
        with pytest.raises(ParseError) as err:
            ingest_cmapss(path)
        assert err.value.line_number == 2
        assert "26" in str(err.value)

    def test_non_numeric_field_reports_line(self, tmp_path):
        row = ["1", "x"] + ["0"] * 24
        path = tmp_path / "nan.txt"
        path.write_text(" ".join(row) + "\n")
        with pytest.raises(ParseError) as err:
            ingest_cmapss(path)
        assert err.value.line_number == 1

    def test_blank_lines_are_skipped(self, tmp_path):
        row = " ".join(["1"] * 26)
        path = tmp_path / "gaps.txt"
        path.write_text(row + "\n\n" + row.replace("1", "2", 1) + "\n")
        with pytest.warns(RuntimeWarning):
            engines = ingest_cmapss(path)
        assert sorted(engines) == [1, 2]

    def test_missing_file_names_download_instructions(self, tmp_path):
        with pytest.raises(DataNotFoundError) as err:
            ingest_cmapss(tmp_path / "train_FD001.txt")
        assert "train_FD001" in str(err.value)


def _grid_reports(methods=5, cutoffs=9):
    reports = []
    for m in range(methods):
        for i in range(cutoffs):
            reports.append(
                BenchReport.from_values(
                    f"method_{m}",
                    "rmse",
                    "cutoff",
                    round(0.9 - 0.1 * i, 2),
                    [float(m + i), float(m + i + 1)],
                )
            )
    return reports


class TestWriteReport:
    def test_empty_reports_write_header_only(self, tmp_path):
        paths = write_report([], tmp_path, "empty")
        csv = (tmp_path / "empty.csv").read_text()
        assert csv == "method,param,mean,stderr,replications\n"
        sidecar = json.loads((tmp_path / "empty.json").read_text())
        assert sidecar["reports"] == []
        assert [p.name for p in paths] == ["empty.csv", "empty.json"]

    def test_full_grid_row_count_and_order(self, tmp_path):
        write_report(_grid_reports(), tmp_path, "grid")
        lines = (tmp_path / "grid.csv").read_text().splitlines()
        assert lines[0] == "method,cutoff,mean,stderr,replications"
        assert len(lines) == 1 + 45
        keys = [
            (ln.split(",")[0], float(ln.split(",")[1])) for ln in lines[1:]
        ]
        assert keys == sorted(keys)

    def test_reruns_are_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        write_report(_grid_reports(), a, "grid", config_echo={"x": 1})
        write_report(_grid_reports(), b, "grid", config_echo={"x": 1})
        for name in ("grid.csv", "grid.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_curves_file_has_sorted_series(self, tmp_path):
        curves = {
            "x": np.array([0.0, 1.0]),
            "series": {"b": np.array([1.0, 2.0]), "a": np.array([3.0, 4.0])},
        }
        paths = write_report([], tmp_path, "plot", curves=curves)
        lines = (tmp_path / "plot_curves.csv").read_text().splitlines()
        assert lines[0] == "x,a,b"
        assert len(lines) == 3
        assert lines[1] == "0,3,1"
        assert paths[-1].name == "plot_curves.csv"

    def test_curves_format_as_numpy_scalars_did(self, tmp_path):
        rng = np.random.default_rng(42)
        x = np.linspace(0.0, 3.0, 41)
        series = {
            "b": rng.normal(scale=1e6, size=41),
            "a": np.concatenate([[np.inf, -np.inf, np.nan, -0.0, 1e-300, 5e-324],
                                 rng.normal(size=35)]),
            "c": list(rng.uniform(size=41)),  # a list, not an array
        }
        write_report([], tmp_path, "plot", curves={"x": x, "series": series})
        names = sorted(series)
        cols = [np.asarray(series[n], dtype=float) for n in names]
        # each numpy scalar as the .12g report format renders it
        want = ["x," + ",".join(names)] + [
            ",".join(f"{v:.12g}" for v in [x[i]] + [col[i] for col in cols])
            for i in range(x.size)
        ]
        assert (tmp_path / "plot_curves.csv").read_text() == "\n".join(want) + "\n"

    def test_failed_write_keeps_previous_file(self, tmp_path):
        # a method name that cannot be encoded makes the CSV write fail
        # after its file is opened; the previous table stays whole and no
        # temporary file is left
        write_report(_grid_reports(), tmp_path, "grid")
        before = (tmp_path / "grid.csv").read_bytes()
        bad = _grid_reports() + [
            BenchReport.from_values("z_\udc80", "rmse", "cutoff", 0.5, [1.0])
        ]
        with pytest.raises(UnicodeEncodeError):
            write_report(bad, tmp_path, "grid")
        assert (tmp_path / "grid.csv").read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["grid.csv", "grid.json"]

    def test_config_echo_lands_in_sidecar(self, tmp_path):
        write_report([], tmp_path, "cfg", config_echo={"alpha": [1, 2]})
        sidecar = json.loads((tmp_path / "cfg.json").read_text())
        assert sidecar["config"] == {"alpha": [1, 2]}


class TestExitCodes:
    def test_no_arguments_is_usage_error(self, capsys):
        assert dispatch([]) == 2
        capsys.readouterr()

    def test_unknown_subcommand_is_usage_error(self, capsys):
        assert dispatch(["transmogrify"]) == 2
        capsys.readouterr()

    def test_bad_config_key_exits_three_and_names_key(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"lip": {"p_zero": 0.01}}))
        records = tmp_path / "records.txt"
        records.write_text("")
        code = dispatch(
            [
                "fit-lip",
                "--records",
                str(records),
                "--sources",
                "3",
                "--config",
                str(cfg),
                "--out",
                str(tmp_path / "lip.txt"),
            ]
        )
        assert code == 3
        err = capsys.readouterr().err
        assert "lip.p_zero" in err
        assert err.startswith("error:")

    def test_missing_records_file_exits_one(self, tmp_path, capsys):
        code = dispatch(
            [
                "fit-lip",
                "--records",
                str(tmp_path / "absent.txt"),
                "--sources",
                "3",
                "--out",
                str(tmp_path / "lip.txt"),
            ]
        )
        assert code == 1
        assert "error:" in capsys.readouterr().err


class TestInputContract:
    """Malformed inputs at the EM's boundary end in one error line."""

    def _run_em(self, tmp_path, *extra, target_text="0.1\n-0.3\n0.2\n"):
        target = tmp_path / "target.txt"
        target.write_text(target_text)
        sources = []
        for name, mean in (("near.txt", 0.0), ("far.txt", 5.0)):
            path = tmp_path / name
            np.savetxt(path, np.random.default_rng(42).normal(mean, 1.0, size=(20, 1)))
            sources.append(str(path))
        return dispatch(
            ["run-em", "--target", str(target), "--sources", *sources,
             "--out", str(tmp_path / "report.txt"), *extra]
        )

    def _single_error_line(self, capsys):
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        return err

    def test_non_finite_target_value_names_file_and_row(self, tmp_path, capsys):
        code = self._run_em(tmp_path, target_text="0.1\nnan\n0.2\n")
        assert code == 1
        err = self._single_error_line(capsys)
        assert "target.txt" in err and "row 2" in err

    @pytest.mark.parametrize(
        "section, key",
        [({"max_iters": 2.5}, "em.max_iters"), ({"tau": "0.1"}, "em.tau")],
    )
    def test_mistyped_em_value_exits_three_naming_key(
        self, tmp_path, capsys, section, key
    ):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"em": section}))
        assert self._run_em(tmp_path, "--config", str(cfg)) == 3
        assert f"[key: {key}]" in self._single_error_line(capsys)

    def test_non_finite_em_tau_exits_three_naming_key(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"em": {"tau": 1e400}}')
        assert self._run_em(tmp_path, "--config", str(cfg)) == 3
        assert "[key: em.tau]" in self._single_error_line(capsys)
        assert not (tmp_path / "report.txt").exists()

    @pytest.mark.parametrize(
        "section",
        [{"tempering_mode": "trace_exact"}, {"init_at_target_mle": False}],
    )
    def test_removed_em_key_exits_three_as_unknown(self, tmp_path, capsys, section):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"em": section}))
        assert self._run_em(tmp_path, "--config", str(cfg)) == 3
        err = self._single_error_line(capsys)
        assert "unknown key" in err and f"[key: em.{next(iter(section))}]" in err

    @pytest.mark.parametrize("p0", ["0.1", True, 0.0, 1.0, 1.5])
    def test_bad_uniform_p0_exits_three_naming_key(self, tmp_path, capsys, p0):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"lip": {"p0": p0}}))
        assert self._run_em(tmp_path, "--config", str(cfg)) == 3
        assert "[key: lip.p0]" in self._single_error_line(capsys)
        assert not (tmp_path / "report.txt").exists()

    def test_bad_prior_entry_index_reports_line(self, tmp_path, capsys):
        prior = tmp_path / "lip.txt"
        prior.write_text("K=2\nalpha_0=0\nalpha_x=1\nalpha_2=0\n")
        assert self._run_em(tmp_path, "--lip", str(prior)) == 1
        assert "line 3" in self._single_error_line(capsys)

    def test_bad_prior_entry_line_counts_blank_lines(self, tmp_path, capsys):
        prior = tmp_path / "lip.txt"
        prior.write_text("K=2\n\nalpha_0=0\n\nalpha_x=1\nalpha_2=0\n")
        assert self._run_em(tmp_path, "--lip", str(prior)) == 1
        assert "line 5" in self._single_error_line(capsys)

    def test_jobs_flag_only_on_elicit(self, tmp_path, capsys):
        assert self._run_em(tmp_path, "--jobs", "2") == 2
        capsys.readouterr()
        summaries = tmp_path / "summaries.json"
        summaries.write_text(json.dumps({"1": "first", "2": "second"}))
        code = dispatch(
            ["elicit", "--summaries", str(summaries), "--jobs", "2",
             "--out", str(tmp_path / "records.txt")]
        )
        # the flag parses; the run then stops on the missing context
        assert code == 3
        assert "[key: context]" in capsys.readouterr().err


class TestParserReuse:
    """One parser, built on first use, serves every ``dispatch`` call."""

    def test_calls_with_different_subcommands_share_one_parser(self, tmp_path, capsys):
        records, prior = tmp_path / "records.txt", tmp_path / "lip.txt"
        assert dispatch(["simulate-oracle", "--alpha", "0,1,-1", "--sizes", "2",
                         "--count", "5", "--out", str(records)]) == 0
        assert dispatch(["fit-lip", "--records", str(records), "--sources", "3",
                         "--out", str(prior)]) == 0
        out = capsys.readouterr().out
        assert f"wrote {records} (5 records)" in out and f"wrote {prior} (3 sources)" in out
        assert cli._build_parser() is cli._build_parser()

    def test_a_failed_parse_leaves_the_parser_usable(self, tmp_path, capsys):
        assert dispatch(["fit-lip", "--sources", "3"]) == 2
        assert "error: usage:" in capsys.readouterr().err
        records = tmp_path / "records.txt"
        records.write_text("")
        out = tmp_path / "lip.txt"
        assert dispatch(["fit-lip", "--records", str(records), "--sources", "2",
                         "--out", str(out)]) == 0
        capsys.readouterr()
        np.testing.assert_allclose(Lip.read(out).pi, [0.01, 0.01], atol=1e-8)

    @pytest.mark.parametrize("argv", [["--help"], ["bench", "gaussian", "--help"]])
    def test_help_is_the_text_of_a_fresh_parser(self, capsys, argv):
        fresh = cli._build_parser.__wrapped__()
        with pytest.raises(SystemExit):
            fresh.parse_args(argv)
        expected = capsys.readouterr().out
        for _ in range(2):
            assert dispatch(argv) == 0
            assert capsys.readouterr().out == expected


class TestFitLipCommand:
    def test_empty_records_fit_writes_baseline_prior(self, tmp_path, capsys):
        records = tmp_path / "records.txt"
        records.write_text("")
        out = tmp_path / "lip.txt"
        code = dispatch(
            ["fit-lip", "--records", str(records), "--sources", "3", "--out", str(out)]
        )
        assert code == 0
        assert f"wrote {out} (3 sources)" in capsys.readouterr().out
        lip = Lip.read(out)
        np.testing.assert_allclose(lip.pi, np.full(3, 0.01), atol=1e-8)

    def test_source_count_numpy_cannot_size_exits_three(self, tmp_path, capsys):
        # 10**19 is past the index range, so numpy refuses it before
        # allocating anything
        records = tmp_path / "records.txt"
        records.write_text("")
        out = tmp_path / "lip.txt"
        code = dispatch(["fit-lip", "--records", str(records), "--sources",
                         str(10**19), "--out", str(out)])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("error: invalid-configuration:") and err.count("\n") == 1
        assert "[key: sources]" in err
        assert not out.exists()

    def test_fit_respects_config_p0(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"lip": {"p0": 0.2}}))
        records = tmp_path / "records.txt"
        records.write_text("")
        out = tmp_path / "lip.txt"
        code = dispatch(
            [
                "fit-lip",
                "--records",
                str(records),
                "--sources",
                "2",
                "--config",
                str(cfg),
                "--out",
                str(out),
            ]
        )
        assert code == 0
        capsys.readouterr()
        np.testing.assert_allclose(Lip.read(out).pi, [0.2, 0.2], atol=1e-8)

    @pytest.mark.parametrize(
        "section, key",
        [
            ({"max_iters": 2.5}, "lip.max_iters"),
            ({"eps": "0.1"}, "lip.eps"),
            ({"tol": None}, "lip.tol"),
        ],
    )
    def test_mistyped_lip_value_exits_three_naming_key(
        self, tmp_path, capsys, section, key
    ):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"lip": section}))
        records = tmp_path / "records.txt"
        records.write_text("subgroup=1,2;choice=1\n")
        code = dispatch(
            ["fit-lip", "--records", str(records), "--sources", "2",
             "--config", str(cfg), "--out", str(tmp_path / "lip.txt")]
        )
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert f"[key: {key}]" in err

    @pytest.mark.parametrize(
        "max_iters, code, start",
        [
            (-1, 3, "error: invalid-configuration: max_iters must be nonnegative"),
            # no step is a budget, not a fault: the fit fails to converge
            (0, 1, "error: optimization-failure: no convergence after 0 iterations"),
        ],
    )
    def test_max_iters_below_one(self, tmp_path, capsys, max_iters, code, start):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"lip": {"max_iters": max_iters}}))
        records = tmp_path / "records.txt"
        records.write_text("subgroup=1,2;choice=1\n")
        out = tmp_path / "lip.txt"
        assert dispatch(
            ["fit-lip", "--records", str(records), "--sources", "2",
             "--config", str(cfg), "--out", str(out)]
        ) == code
        err = capsys.readouterr().err
        assert err.startswith(start) and err.count("\n") == 1
        assert err.endswith("[key: lip.max_iters]\n") == (code == 3)
        assert not out.exists()

    def test_overflowing_eps_prints_one_error_line(self, tmp_path):
        # 2 * eps overflows and the gradient is NaN: the error says so,
        # and no numpy warning reaches stderr before it
        import os
        import subprocess
        import sys

        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"lip": {"eps": 1e308}}))
        records = tmp_path / "records.txt"
        records.write_text("subgroup=1,2;choice=1\n")
        src = str(Path(cli.__file__).resolve().parents[1])
        done = subprocess.run(
            [sys.executable, "-m", "lipem", "fit-lip", "--records", str(records),
             "--sources", "2", "--config", str(cfg), "--out", str(tmp_path / "lip.txt")],
            capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src), timeout=60,
        )
        assert done.returncode == 1
        assert done.stderr.startswith(
            "error: optimization-failure: non-finite gradient at iteration 0"
        )
        assert done.stderr.count("\n") == 1


# the records grammar, as a parse error states it
GRAMMAR = "expected 'subgroup=<i>,...;choice=<c>', digits 0-9 only, at most 18 per field"


class TestRecordsPipeline:
    """``simulate-oracle`` and ``fit-lip`` work on compiled queries; their
    files must equal the library's record-list round trip byte for byte,
    and a bad records file must fail naming its first bad line."""

    K = 50
    ALPHA = np.concatenate(
        ([0.0], np.random.default_rng(3).normal(np.log(0.05 / 0.95), 0.5, size=K))
    )

    def _fit(self, records, out):
        return dispatch(
            ["fit-lip", "--records", str(records), "--sources", str(self.K),
             "--out", str(out)]
        )

    @pytest.mark.parametrize("count", [2500, 0])
    @pytest.mark.parametrize("seed", [42, *range(1, 10)])
    def test_files_equal_the_record_list_round_trip(self, tmp_path, capsys, seed, count):
        records, prior = tmp_path / "records.txt", tmp_path / "lip.txt"
        code = dispatch(
            ["simulate-oracle", "--alpha=" + ",".join(map(repr, self.ALPHA.tolist())),
             "--sizes", "3,4,5", "--count", str(count), "--seed", str(seed),
             "--out", str(records)]
        )
        assert code == 0 and self._fit(records, prior) == 0
        capsys.readouterr()
        expected_records, expected_prior = tmp_path / "r.txt", tmp_path / "l.txt"
        write_records(
            expected_records,
            simulate_elicitation(
                WorthVector(self.ALPHA), [3, 4, 5], count, np.random.default_rng(seed)
            ),
        )
        fit_lip(read_records(expected_records), self.K)[1].write(expected_prior)
        assert records.read_bytes() == expected_records.read_bytes()
        assert prior.read_bytes() == expected_prior.read_bytes()

    BIG = "1" + "0" * 29

    @pytest.mark.parametrize(
        "text, code, message",
        [
            ("subgroup=1,2,2;choice=1", 1,
             "parse: {path}: line 1: invalid-configuration: subgroup has "
             "repeated indices: (1, 2, 2)"),
            ("subgroup=3,0,2;choice=2", 1,
             "parse: {path}: line 1: invalid-configuration: source indices "
             "must be >= 1, got (0, 2, 3)"),
            ("subgroup=1,2,3;choice=4", 1,
             "parse: {path}: line 1: invalid-choice: choice 4 is not in "
             "subgroup (1, 2, 3) or the null"),
            ("subgroup=1,2,99;choice=0", 3,
             "invalid-configuration: subgroup (1, 2, 99) references a source "
             "beyond K=50 [key: sources]"),
            # a field of more than 18 digits is refused before K is known
            (f"subgroup=1,{BIG},2;choice={BIG}", 1, "parse: {path}: line 1: " + GRAMMAR),
            ("subgroup=1,2,3;choice=" + "9" * 27, 1, "parse: {path}: line 1: " + GRAMMAR),
            ("subgroup=1,2,99;choice=0\nsubgroup=1,2;choice=x", 1,
             "parse: {path}: line 2: " + GRAMMAR),
            ("subgroup=1,2;choice=1\n\nsubgroup=4,4;choice=0\nsubgroup=1;;choice=1", 1,
             "parse: {path}: line 2: " + GRAMMAR),
            ("subgroup=1;;choice=1\nsubgroup=4,4;choice=0", 1,
             "parse: {path}: line 1: " + GRAMMAR),
        ],
    )
    def test_bad_file_error_line(self, tmp_path, capsys, text, code, message):
        records = tmp_path / "records.txt"
        records.write_text(text + "\n", encoding="utf-8")
        assert self._fit(records, tmp_path / "lip.txt") == code
        err = capsys.readouterr().err
        assert err == "error: " + message.format(path=records) + "\n"

    @pytest.mark.parametrize(
        "spelling",
        ["subgroup=3,1,2;choice=3", "subgroup=01,2,003;choice=03", "subgroup=2,3,1;choice=3\r"],
    )
    def test_other_spellings_fit_as_the_canonical_one(self, tmp_path, capsys, spelling):
        # members in any order, leading zeros and a CRLF line end
        canonical, other = tmp_path / "canonical.txt", tmp_path / "other.txt"
        canonical.write_text("subgroup=1,2,3;choice=3\n", encoding="utf-8")
        other.write_text(spelling + "\n", encoding="utf-8")
        assert self._fit(canonical, tmp_path / "a.txt") == 0
        assert self._fit(other, tmp_path / "b.txt") == 0
        capsys.readouterr()
        assert (tmp_path / "a.txt").read_bytes() == (tmp_path / "b.txt").read_bytes()

    @pytest.mark.parametrize(
        "text, line",
        [
            ("subgroup=1, 2 ,+3;choice=\u0663", 1),
            ("subgroup=1,2,3;choice=3 ", 1),
            ("subgroup=1,+2,3;choice=3", 1),
            ("subgroup=1,2,\u0663;choice=3", 1),
            ("subgroup=1,2,\uff13;choice=0", 1),
            ("subgroup=1,2,0_3;choice=3", 1),
            ("subgroup=1,2,3;choice=3\n\nsubgroup=1;choice=0", 2),
            ("subgroup=1,2;choice=0\nsubgroup=1,2,3;choice=" + "0" * 18 + "3", 2),
        ],
    )
    def test_other_spellings_are_refused(self, tmp_path, capsys, text, line):
        records = tmp_path / "records.txt"
        records.write_text(text + "\n", encoding="utf-8")
        assert self._fit(records, tmp_path / "lip.txt") == 1
        err = capsys.readouterr().err
        assert err == f"error: parse: {records}: line {line}: {GRAMMAR}\n"
        assert not (tmp_path / "lip.txt").exists()


class TestSimulateOracleCommand:
    def test_round_trip_through_records_file(self, tmp_path, capsys):
        out = tmp_path / "records.txt"
        code = dispatch(
            [
                "simulate-oracle",
                "--alpha",
                "0,1.0,-1.0",
                "--sizes",
                "2,2",
                "--count",
                "50",
                "--seed",
                "7",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        assert f"wrote {out} (50 records)" in capsys.readouterr().out
        records = read_records(out)
        assert len(records) == 50
        for rec in records:
            assert len(rec.subgroup) == 2
            assert set(rec.subgroup) <= {1, 2}
            assert rec.choice == 0 or rec.choice in rec.subgroup

    def test_same_seed_reproduces_file_bytes(self, tmp_path, capsys):
        args = [
            "simulate-oracle",
            "--alpha",
            "0,0.5,-0.5",
            "--count",
            "30",
            "--sizes",
            "2,2",
            "--seed",
            "11",
        ]
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        assert dispatch(args + ["--out", str(a)]) == 0
        assert dispatch(args + ["--out", str(b)]) == 0
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()

    def test_oversized_subgroup_exits_three(self, tmp_path, capsys):
        code = dispatch(
            [
                "simulate-oracle",
                "--alpha",
                "0,1.0",
                "--sizes",
                "3",
                "--out",
                str(tmp_path / "r.txt"),
            ]
        )
        assert code == 3
        capsys.readouterr()


class TestRunEmCommand:
    def _write_datasets(self, tmp_path, rng):
        target = tmp_path / "target.txt"
        near = tmp_path / "near.txt"
        far = tmp_path / "far.txt"
        np.savetxt(target, rng.normal(0.0, 1.0, size=(4, 1)))
        np.savetxt(near, rng.normal(0.05, 1.0, size=(200, 1)))
        np.savetxt(far, rng.normal(5.0, 1.0, size=(200, 1)))
        return target, near, far

    def test_uniform_prior_run_writes_report(self, tmp_path, capsys):
        rng = np.random.default_rng(42)
        target, near, far = self._write_datasets(tmp_path, rng)
        out = tmp_path / "report.txt"
        code = dispatch(
            [
                "run-em",
                "--target",
                str(target),
                "--sources",
                str(near),
                str(far),
                "--out",
                str(out),
            ]
        )
        assert code == 0
        stdout = capsys.readouterr().out
        assert "converged=" in stdout and "weights=[" in stdout
        text = out.read_text()
        assert text.startswith("# em run report")
        assert "# columns: t beta_1 beta_2 w_1 w_2 theta_1 delta_w" in text

    def test_prior_file_drives_the_run(self, tmp_path, capsys):
        rng = np.random.default_rng(42)
        target, near, far = self._write_datasets(tmp_path, rng)
        prior = tmp_path / "lip.txt"
        Lip(pi=np.array([0.9, 0.01]), provenance="file").write(prior)
        out = tmp_path / "report.txt"
        code = dispatch(
            [
                "run-em",
                "--target",
                str(target),
                "--sources",
                str(near),
                str(far),
                "--lip",
                str(prior),
                "--out",
                str(out),
            ]
        )
        assert code == 0
        capsys.readouterr()
        rows = [
            ln
            for ln in out.read_text().splitlines()
            if ln and not ln.startswith("#")
        ]
        first = rows[0].split()
        # iteration zero echoes the prior before any update
        np.testing.assert_allclose(
            [float(first[3]), float(first[4])], [0.9, 0.01], rtol=1e-10
        )

    def test_prior_source_count_mismatch_exits_three(self, tmp_path, capsys):
        rng = np.random.default_rng(42)
        target, near, far = self._write_datasets(tmp_path, rng)
        prior = tmp_path / "lip.txt"
        Lip(pi=np.array([0.9]), provenance="file").write(prior)
        code = dispatch(
            [
                "run-em",
                "--target",
                str(target),
                "--sources",
                str(near),
                str(far),
                "--lip",
                str(prior),
                "--out",
                str(tmp_path / "r.txt"),
            ]
        )
        assert code == 3
        assert "[key: lip]" in capsys.readouterr().err


class TestBenchCmapssCommand:
    def _run(self, data_dir, out, *extra):
        return dispatch(
            ["bench", "cmapss", "--data", str(data_dir), "--engines", "2",
             "--cutoff", "0.4", "--out", str(out), *extra]
        )

    def _lip_em_values(self, out):
        sidecar = json.loads((out / "cmapss.json").read_text())
        return [r["values"] for r in sidecar["reports"] if r["method"] == "lip_em"]

    def test_prior_file_matches_the_fast_decay_run(self, cmapss_dir, capsys):
        with pytest.warns(RuntimeWarning):
            engines = ingest_cmapss(cmapss_dir)
        prior = cmapss_dir / "lip.txt"
        fast_decay_lip(engines).write(prior)
        with pytest.warns(RuntimeWarning):
            assert self._run(cmapss_dir, cmapss_dir / "a", "--lip", str(prior)) == 0
            assert self._run(cmapss_dir, cmapss_dir / "b", "--lip", "fast-decay") == 0
        capsys.readouterr()
        from_file = self._lip_em_values(cmapss_dir / "a")
        assert from_file and from_file == self._lip_em_values(cmapss_dir / "b")

    def test_records_file_is_not_a_prior(self, cmapss_dir, capsys):
        records = cmapss_dir / "records.txt"
        records.write_text("subgroup=1,2;choice=1\n")
        with pytest.warns(RuntimeWarning):
            assert self._run(cmapss_dir, cmapss_dir / "r", "--lip", str(records)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: parse") and "K=<int>" in err
        assert not (cmapss_dir / "r").exists()

    def test_prior_source_count_mismatch_exits_three(self, cmapss_dir, capsys):
        prior = cmapss_dir / "lip.txt"
        Lip(pi=np.full(5, 0.5), provenance="file").write(prior)
        with pytest.warns(RuntimeWarning):
            assert self._run(cmapss_dir, cmapss_dir / "r", "--lip", str(prior)) == 3
        assert "[key: lip_source]" in capsys.readouterr().err


class TestIntegerBeyondFloatRange:
    @pytest.mark.parametrize(
        "argv, doc, key",
        [
            (["bench", "gaussian"], {"experiment": {"sigma": 10**400}}, "experiment.sigma"),
            (["bench", "oracle-mse"], {"oracle": {"taus": [0.1, 10**400]}}, "oracle.taus"),
        ],
    )
    def test_exits_three_naming_key(self, tmp_path, capsys, argv, doc, key):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        code = dispatch([*argv, "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert err.endswith(f"[key: {key}]\n")


class TestBenchOracleMseCommand:
    def _run(self, tmp_path, capsys, out_name):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            json.dumps(
                {"oracle": {"replications": 2000, "taus": [0.0], "n_weight_vectors": 2}}
            )
        )
        out = tmp_path / out_name
        code = dispatch(
            [
                "bench",
                "oracle-mse",
                "--config",
                str(cfg),
                "--seed",
                "42",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        return out, capsys.readouterr().out

    def test_closed_form_row_and_summary_line(self, tmp_path, capsys):
        out, stdout = self._run(tmp_path, capsys, "reports")
        lines = (out / "oracle_mse.csv").read_text().splitlines()
        assert lines[0] == "method,tau,mean,stderr,replications"
        closed = next(ln for ln in lines if ln.startswith("closed_form,"))
        assert closed.split(",")[2] == "0.00165562913907"
        assert any(ln.startswith("fixed_w1_predicted,") for ln in lines)
        assert any(ln.startswith("fixed_w2_mc,") for ln in lines)
        assert "tau=0 closed_form=0.00165562913907" in stdout
        payload = json.loads((out / "oracle_mse.json").read_text())
        assert abs(payload[0]["z_score"]) <= 4.0

    def test_reruns_are_byte_identical(self, tmp_path, capsys):
        first, _ = self._run(tmp_path, capsys, "run_a")
        second, _ = self._run(tmp_path, capsys, "run_b")
        for name in ("oracle_mse.csv", "oracle_mse.json"):
            assert (first / name).read_bytes() == (second / name).read_bytes()


class TestBenchGaussianCommand:
    def test_tiny_run_emits_all_three_files(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            json.dumps(
                {"experiment": {"dims": [1], "replications": 3, "curve_points": 5}}
            )
        )
        out = tmp_path / "reports"
        code = dispatch(
            ["bench", "gaussian", "--config", str(cfg), "--out", str(out)]
        )
        assert code == 0
        stdout = capsys.readouterr().out
        for name in ("gaussian.csv", "gaussian.json", "gaussian_curves.csv"):
            assert (out / name).exists()
            assert name in stdout
        lines = (out / "gaussian.csv").read_text().splitlines()
        assert lines[0] == "method,dim,mean,stderr,replications"
        assert len(lines) == 1 + 5
        curves = (out / "gaussian_curves.csv").read_text().splitlines()
        assert len(curves) == 1 + 5
        sidecar = json.loads((out / "gaussian.json").read_text())
        assert sidecar["config"]["replications"] == 3

    def test_seed_42_matches_the_benchmark_reference(self, tmp_path, capsys):
        # the benchmark's correctness gate: one replication at seed 42
        # must reproduce the stored values of every method and dimension
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"experiment": {"replications": 1}}))
        out = tmp_path / "reports"
        code = dispatch(
            ["bench", "gaussian", "--config", str(cfg), "--seed", "42",
             "--out", str(out)]
        )
        assert code == 0
        capsys.readouterr()
        sidecar = json.loads((out / "gaussian.json").read_text())
        values = {
            f"{r['method']}@{r['param_name']}={r['param_value']!r}": r["values"]
            for r in sidecar["reports"]
        }
        reference = json.loads(
            (REFERENCE_DIR / "gaussian_study.json").read_text()
        )["values"]
        assert sorted(values) == sorted(reference)
        for key, ref in reference.items():
            assert len(values[key]) == len(ref)
            for got, want in zip(values[key], ref):
                assert abs(got - want) <= 1e-10 * max(1.0, abs(want)), key

    @pytest.mark.parametrize(
        "command, doc, key",
        [
            ("gaussian", {"experiment": {"replications": "3"}}, "experiment.replications"),
            ("dichotomy", {"dichotomy": {"n_sweep": 10}}, "dichotomy.n_sweep"),
            # out-of-range values, checked where the library owns them
            ("gaussian", {"experiment": {"replications": 0}}, "experiment.replications"),
            ("gaussian", {"experiment": {"curve_points": -1}}, "experiment.curve_points"),
            ("gaussian", {"experiment": {"dims": []}}, "experiment.dims"),
            ("gaussian", {"experiment": {"dims": [0]}}, "experiment.dims"),
            ("dichotomy", {"dichotomy": {"replications": 0}}, "dichotomy.replications"),
            ("consistency", {"consistency": {"replications": 0}}, "consistency.replications"),
            ("gaussian", {"experiment": {"n_relevant": 5}}, "experiment.n_relevant"),
            ("gaussian", {"experiment": {"n_relevant": -1}}, "experiment.n_relevant"),
            ("gaussian", {"experiment": {"n_sources": 0}}, "experiment.n_sources"),
            ("gaussian", {"experiment": {"p0": 0}}, "experiment.p0"),
            ("gaussian", {"experiment": {"strong_prior": 1.5}}, "experiment.strong_prior"),
            ("gaussian", {"experiment": {"n_source": 0}}, "experiment.n_source"),
            ("gaussian", {"experiment": {"n_target": 0}}, "experiment.n_target"),
            # 1e400 is inf, written as Infinity, which JSON reads as 1e400 reads
            ("gaussian", {"experiment": {"sigma": 1e400}}, "experiment.sigma"),
            ("gaussian", {"experiment": {"tau": 1e400}}, "experiment.tau"),
            ("oracle-mse", {"generator": {"sigma": 1e400}}, "generator.sigma"),
            ("oracle-mse", {"generator": {"tau": 1e400}}, "generator.tau"),
            # each swept tau is checked as the generator's tau
            ("oracle-mse", {"oracle": {"taus": [1e400]}}, "oracle.taus"),
            ("oracle-mse", {"oracle": {"taus": [-1]}}, "oracle.taus"),
        ],
    )
    def test_bad_bench_value_exits_three_naming_key(
        self, tmp_path, capsys, command, doc, key
    ):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        code = dispatch(
            ["bench", command, "--config", str(cfg), "--out", str(tmp_path / "r")]
        )
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert f"[key: {key}]" in err
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize(
        "command, doc, key",
        [
            ("dichotomy", {"dichotomy": {"n_sweep": []}}, "dichotomy.n_sweep"),
            ("dichotomy", {"dichotomy": {"priors": []}}, "dichotomy.priors"),
            ("consistency", {"consistency": {"n0_sweep": []}}, "consistency.n0_sweep"),
            ("oracle-mse", {"oracle": {"taus": []}}, "oracle.taus"),
            ("cmapss", {"cmapss": {"cutoffs": [], "engines": [1]}}, "cmapss.cutoffs"),
            ("cmapss", {"cmapss": {"engines": []}}, "cmapss.engines"),
        ],
    )
    def test_empty_sweep_exits_three_naming_key(
        self, cmapss_dir, capsys, command, doc, key
    ):
        self._assert_bad_sweep(cmapss_dir, capsys, command, doc, key, [])

    @pytest.mark.parametrize(
        "command, doc, flags, key",
        [
            ("dichotomy", {"dichotomy": {"n_sweep": [10, 10]}}, [], "dichotomy.n_sweep"),
            ("dichotomy", {"dichotomy": {"priors": [0.1, 0.1]}}, [], "dichotomy.priors"),
            ("consistency", {"consistency": {"n0_sweep": [100, 100], "replications": 3}}, [],
             "consistency.n0_sweep"),
            ("oracle-mse", {"oracle": {"taus": [0.1, 0.1]}}, [], "oracle.taus"),
            ("gaussian", {"experiment": {"dims": [1, 1]}}, [], "experiment.dims"),
            ("cmapss", {}, ["--engines", "1,1", "--cutoff", "0.5"], "cmapss.engines"),
            ("cmapss", {"cmapss": {"cutoffs": [0.5, 0.5]}}, ["--engines", "1"],
             "cmapss.cutoffs"),
            # cutoff 0 keeps every cycle for training, so no holdout is left
            ("cmapss", {}, ["--engines", "1", "--cutoff", "0"], "cmapss.cutoffs"),
        ],
    )
    def test_repeated_sweep_value_exits_three_naming_key(
        self, cmapss_dir, capsys, command, doc, flags, key
    ):
        self._assert_bad_sweep(cmapss_dir, capsys, command, doc, key, flags)

    def _assert_bad_sweep(self, cmapss_dir, capsys, command, doc, key, flags):
        cfg = cmapss_dir / "cfg.json"
        cfg.write_text(json.dumps(doc))
        argv = ["bench", command, "--config", str(cfg), "--out", str(cmapss_dir / "r"), *flags]
        if command == "cmapss":
            argv += ["--data", str(cmapss_dir)]
        with warnings.catch_warnings():
            # the six-engine fixture file is smaller than FD001
            warnings.simplefilter("ignore", RuntimeWarning)
            code = dispatch(argv)
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert f"[key: {key}]" in err
        assert not (cmapss_dir / "r").exists()

    @pytest.mark.parametrize(
        "knots", [[0, 300, 100], [0, 150, 1e400], [-1e400, 150, 300], [0, 300]]
    )
    def test_bad_cmapss_knots_exit_three_naming_key(self, cmapss_dir, capsys, knots):
        cfg = cmapss_dir / "cfg.json"
        cfg.write_text(json.dumps({"cmapss": {"knots": knots}}))
        out = cmapss_dir / "r"
        argv = ["bench", "cmapss", "--data", str(cmapss_dir), "--engines", "4",
                "--cutoff", "0.5", "--config", str(cfg), "--out", str(out)]
        with warnings.catch_warnings():
            # the six-engine fixture file is smaller than FD001
            warnings.simplefilter("ignore", RuntimeWarning)
            code = dispatch(argv)
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert "[key: cmapss.knots]" in err
        assert not out.exists()

    def test_unknown_experiment_key_exits_three(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"experiment": {"dims": [1], "reps": 3}}))
        code = dispatch(
            ["bench", "gaussian", "--config", str(cfg), "--out", str(tmp_path / "r")]
        )
        assert code == 3
        assert "experiment.reps" in capsys.readouterr().err


class TestElicitCommand:
    def test_missing_context_exits_three(self, tmp_path, capsys):
        summaries = tmp_path / "summaries.json"
        summaries.write_text(json.dumps({"1": "first", "2": "second"}))
        code = dispatch(
            [
                "elicit",
                "--summaries",
                str(summaries),
                "--out",
                str(tmp_path / "records.txt"),
            ]
        )
        assert code == 3
        assert "[key: context]" in capsys.readouterr().err

    def test_malformed_replay_line_exits_one(self, tmp_path, capsys):
        summaries = tmp_path / "summaries.json"
        summaries.write_text(json.dumps({"1": "first", "2": "second"}))
        replay = tmp_path / "replay.jsonl"
        replay.write_text('not json\n{"key": "a", "choice": 1}\n')
        code = dispatch(
            ["elicit", "--summaries", str(summaries), "--context", "pick one",
             "--replay", str(replay), "--out", str(tmp_path / "records.txt")]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: parse:") and "line 1" in err


class TestCommandInputs:
    """Each command takes only the flags and config sections it reads."""

    # argv of each command up to its own flags; the section is one the
    # command does not read
    COMMANDS = [
        (["fit-lip", "--records", "r.txt", "--sources", "2"], "em"),
        (["run-em", "--target", "t.txt", "--sources", "s.txt"], "experiment"),
        (["bench", "gaussian"], "em"),
        (["bench", "cmapss", "--data", "absent"], "generator"),
        (["bench", "oracle-mse"], "dichotomy"),
        (["bench", "dichotomy"], "oracle"),
        (["bench", "consistency"], "dichotomy"),
    ]

    @pytest.mark.parametrize("argv, section", COMMANDS)
    def test_unread_section_exits_three_naming_it(
        self, tmp_path, capsys, argv, section
    ):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({section: {}}))
        out = tmp_path / "out"
        assert dispatch([*argv, "--config", str(cfg), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert f"[key: {section}]" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["fit-lip", "--records", "r.txt", "--sources", "2", "--seed", "1"],
            ["run-em", "--target", "t.txt", "--sources", "s.txt", "--seed", "1"],
            ["bench", "cmapss", "--data", "absent", "--seed", "1"],
            ["simulate-oracle", "--alpha", "0,1", "--config", "cfg.json"],
            ["elicit", "--summaries", "s.json", "--config", "cfg.json"],
        ],
    )
    def test_dropped_flag_is_usage_error(self, argv, capsys):
        assert dispatch(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: usage:") and err.count("\n") == 1
        assert "unrecognized arguments" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["simulate-oracle", "--alpha", "0,x"],
            ["simulate-oracle", "--alpha", "0,1", "--sizes", "1,y"],
            ["bench", "cmapss", "--data", "absent", "--cutoff", "0.5,abc"],
            ["bench", "cmapss", "--data", "absent", "--engines", "1,x"],
        ],
    )
    def test_malformed_list_flag_is_usage_error(self, tmp_path, capsys, argv):
        assert dispatch([*argv, "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: usage:") and err.count("\n") == 1
        assert "_list value" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "command, check, body",
        [
            ("dichotomy", dichotomy_check, {"n_sweep": [10, 100], "replications": 3}),
            ("consistency", consistency_check, {"n0_sweep": [100], "replications": 3}),
        ],
    )
    def test_check_commands_write_their_library_reports(
        self, tmp_path, capsys, command, check, body
    ):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({command: body}))
        out = tmp_path / "reports"
        argv = ["bench", command, "--config", str(cfg), "--seed", "7",
                "--out", str(out)]
        assert dispatch(argv) == 0
        capsys.readouterr()
        names = sorted(p.name for p in out.iterdir())
        assert names == [f"{command}.csv", f"{command}.json"]
        sidecar = json.loads((out / f"{command}.json").read_text())
        assert sidecar["config"]["spec"]["seed"] == 7
        assert {k: v for k, v in sidecar["config"].items() if k != "spec"} == body
        spec = dataclasses.replace(SEPARATED_SPEC, seed=7)
        expected = sorted(check(spec, **body), key=lambda r: (r.method, r.param_value))
        got = [(r["method"], r["param_value"], r["values"]) for r in sidecar["reports"]]
        assert got == [(r.method, r.param_value, list(r.values)) for r in expected]


class TestElicitSummaries:
    @pytest.mark.parametrize(
        "text",
        ["not json", '["first", "second"]', '{"one": "first"}', "{}", "\udcff"],
    )
    def test_bad_summaries_file_is_a_parse_error(self, tmp_path, capsys, text):
        summaries = tmp_path / "summaries.json"
        summaries.write_bytes(text.encode("utf-8", "surrogateescape"))
        code = dispatch(
            ["elicit", "--summaries", str(summaries), "--context", "pick one",
             "--out", str(tmp_path / "records.txt")]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: parse:") and err.count("\n") == 1
        assert str(summaries) in err
        assert not (tmp_path / "records.txt").exists()


NOT_UTF8 = b"\xff\xfeK=2\n"


class TestNonUtf8Input:
    """A text input that is not UTF-8 is one parse error naming the file."""

    def _parse_error_naming(self, path, capsys):
        err = capsys.readouterr().err
        assert err.startswith("error: parse:") and err.count("\n") == 1
        assert str(path) in err and "not UTF-8" in err

    def test_records_file(self, tmp_path, capsys):
        records = tmp_path / "records.txt"
        records.write_bytes(NOT_UTF8)
        out = tmp_path / "lip.txt"
        argv = ["fit-lip", "--records", str(records), "--sources", "2", "--out", str(out)]
        assert dispatch(argv) == 1
        self._parse_error_naming(records, capsys)
        assert not out.exists()

    def test_prior_file(self, tmp_path, capsys):
        prior = tmp_path / "lip.txt"
        prior.write_bytes(NOT_UTF8)
        target, source = tmp_path / "t.txt", tmp_path / "s.txt"
        target.write_text("0.1\n0.2\n")
        source.write_text("0.3\n0.4\n")
        out = tmp_path / "report.txt"
        argv = ["run-em", "--target", str(target), "--sources", str(source),
                "--lip", str(prior), "--out", str(out)]
        assert dispatch(argv) == 1
        self._parse_error_naming(prior, capsys)
        assert not out.exists()

    def test_turbofan_file(self, tmp_path, capsys):
        data = tmp_path / "train_FD001.txt"
        data.write_bytes(NOT_UTF8)
        out = tmp_path / "reports"
        argv = ["bench", "cmapss", "--data", str(tmp_path), "--out", str(out)]
        assert dispatch(argv) == 1
        self._parse_error_naming(data, capsys)
        assert not out.exists()

    def test_context_file(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr("lipem.judge.HttpTransport", _no_transport)
        summaries = tmp_path / "summaries.json"
        summaries.write_text(json.dumps({"1": "first", "2": "second"}))
        context = tmp_path / "context.txt"
        context.write_bytes(NOT_UTF8)
        out = tmp_path / "records.txt"
        argv = ["elicit", "--summaries", str(summaries), "--context-file",
                str(context), "--out", str(out)]
        assert dispatch(argv) == 1
        self._parse_error_naming(context, capsys)
        assert not out.exists()


def _no_transport(config):
    def send(prompt):
        raise AssertionError("no query may be sent")

    return send


class TestNegativeCount:
    @pytest.mark.parametrize(
        "argv",
        [
            ["simulate-oracle", "--alpha", "0,1,-1", "--sizes", "2", "--count", "-5"],
            ["elicit", "--summaries", "SUMMARIES", "--context", "pick one",
             "--sizes", "2", "--count", "-3"],
        ],
    )
    def test_exits_three_and_writes_nothing(self, tmp_path, capsys, monkeypatch, argv):
        monkeypatch.setattr("lipem.judge.HttpTransport", _no_transport)
        summaries = tmp_path / "summaries.json"
        summaries.write_text(json.dumps({"1": "first", "2": "second"}))
        argv = [str(summaries) if a == "SUMMARIES" else a for a in argv]
        out = tmp_path / "records.txt"
        assert dispatch([*argv, "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert "[key: count]" in err
        assert not out.exists()

    def test_zero_count_still_writes_an_empty_file(self, tmp_path, capsys):
        out = tmp_path / "records.txt"
        argv = ["simulate-oracle", "--alpha", "0,1,-1", "--sizes", "2",
                "--count", "0", "--out", str(out)]
        assert dispatch(argv) == 0
        capsys.readouterr()
        assert out.read_bytes() == b""


class TestNegativeSeed:
    """numpy takes no negative seed; every seeded command and config
    section rejects one with exit 3 naming the key, before any work."""

    @pytest.mark.parametrize(
        "argv, doc, key",
        [
            (["simulate-oracle", "--alpha", "0,1,-1", "--sizes", "2", "--seed", "-1"],
             None, "seed"),
            (["elicit", "--summaries", "SUMMARIES", "--context", "pick one",
              "--sizes", "2", "--seed", "-1"], None, "seed"),
            (["bench", "gaussian", "--seed", "-1"], None, "seed"),
            (["bench", "oracle-mse", "--seed", "-1"], None, "seed"),
            (["bench", "dichotomy", "--seed", "-1"], None, "seed"),
            (["bench", "consistency", "--seed", "-2"], None, "seed"),
            (["bench", "gaussian"], {"experiment": {"seed": -1}}, "experiment.seed"),
            (["bench", "oracle-mse"], {"generator": {"seed": -1}}, "generator.seed"),
            (["bench", "dichotomy"], {"generator": {"seed": -1}}, "generator.seed"),
        ],
    )
    def test_exits_three_naming_seed(self, tmp_path, capsys, monkeypatch, argv, doc, key):
        monkeypatch.setattr("lipem.judge.HttpTransport", _no_transport)
        summaries = tmp_path / "summaries.json"
        summaries.write_text(json.dumps({"1": "first", "2": "second"}))
        argv = [str(summaries) if a == "SUMMARIES" else a for a in argv]
        if doc is not None:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps(doc))
            argv += ["--config", str(cfg)]
        out = tmp_path / "out"
        assert dispatch([*argv, "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert err.endswith(f"[key: {key}]\n")
        assert not out.exists()

    def test_zero_seed_accepted(self, tmp_path, capsys):
        out = tmp_path / "records.txt"
        argv = ["simulate-oracle", "--alpha", "0,1,-1", "--sizes", "2",
                "--count", "3", "--seed", "0", "--out", str(out)]
        assert dispatch(argv) == 0
        capsys.readouterr()
        assert len(out.read_text().splitlines()) == 3


class TestCountBeyondInt64:
    @pytest.mark.parametrize(
        "argv",
        [
            ["simulate-oracle", "--alpha", "0,1,-1", "--sizes", "2"],
            ["elicit", "--summaries", "SUMMARIES", "--context", "pick one", "--sizes", "2"],
        ],
    )
    def test_exits_three_naming_count(self, tmp_path, capsys, monkeypatch, argv):
        monkeypatch.setattr("lipem.judge.HttpTransport", _no_transport)
        summaries = tmp_path / "summaries.json"
        summaries.write_text(json.dumps({"1": "first", "2": "second"}))
        argv = [str(summaries) if a == "SUMMARIES" else a for a in argv]
        out = tmp_path / "records.txt"
        argv += ["--count", "99999999999999999999", "--out", str(out)]
        assert dispatch(argv) == 3
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert "[key: count]" in err
        assert not out.exists()


class TestElicitSourceCount:
    """``elicit`` refuses a K it cannot draw from, and summaries that miss
    a source of 1..K, with exit 3 naming the flag or the file, before any
    query is sent."""

    @pytest.mark.parametrize(
        "summaries, flags, key",
        [
            ({"1": "a", "2": "b"}, ["--sources", "100000000000000000000"], "sources"),
            ({"1": "a", "2": "b"}, ["--sources", "9223372036854775808"], "sources"),
            ({"1": "a", "2": "b"}, ["--sources", "0"], "sources"),  # not "infer K"
            ({"1": "a", "2": "b"}, ["--sources", "-3"], "sources"),
            ({"0": "a", "-1": "b"}, [], "summaries"),  # an inferred K of 0
            ({"1": "a", "2": "b", "5": "c"}, [], "summaries"),  # K = 5 misses 3 and 4
            ({"1": "a", "2": "b"}, ["--sources", "3"], "summaries"),
            ({"1": "a", "2": "b"}, ["--sources", "9223372036854775807"], "summaries"),
        ],
    )
    def test_exits_three_naming_the_key(
        self, tmp_path, capsys, monkeypatch, summaries, flags, key
    ):
        monkeypatch.setattr("lipem.judge.HttpTransport", _no_transport)
        path = tmp_path / "summaries.json"
        path.write_text(json.dumps(summaries))
        out = tmp_path / "records.txt"
        argv = ["elicit", "--summaries", str(path), "--context", "pick one",
                "--sizes", "1", *flags, "--out", str(out)]
        assert dispatch(argv) == 3
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert err.endswith(f"[key: {key}]\n")
        assert not out.exists()

    def test_absent_flag_infers_k_from_the_summaries(self, tmp_path, capsys, monkeypatch):
        prompts = []

        def transport(config):
            def send(prompt):
                prompts.append(prompt)
                return '{"choice": 0}'

            return send

        monkeypatch.setattr("lipem.judge.HttpTransport", transport)
        path = tmp_path / "summaries.json"
        path.write_text(json.dumps({"1": "a", "2": "b", "3": "c"}))
        out = tmp_path / "records.txt"
        argv = ["elicit", "--summaries", str(path), "--context", "pick one",
                "--sizes", "3", "--count", "2", "--out", str(out)]
        assert dispatch(argv) == 0
        capsys.readouterr()
        assert out.read_text() == "subgroup=1,2,3;choice=0\n" * 2
        assert len(prompts) == 2


class TestNonFiniteTurbofanValues:
    """A nan or inf cycle or sensor 9 value is one parse error naming
    the file line, not a NaN noise variance found later."""

    @pytest.mark.parametrize(
        "column, value", [(1, "nan"), (1, "inf"), (13, "nan"), (13, "-inf")]
    )
    def test_exits_one_naming_the_line(self, cmapss_dir, capsys, column, value):
        data = cmapss_dir / "train_FD001.txt"
        lines = data.read_text().splitlines()
        fields = lines[4].split()
        fields[column] = value
        lines[4] = " ".join(fields)
        data.write_text("\n".join(lines) + "\n")
        out = cmapss_dir / "r"
        argv = ["bench", "cmapss", "--data", str(cmapss_dir), "--engines", "2",
                "--cutoff", "0.5", "--lip", "uniform", "--out", str(out)]
        assert dispatch(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: parse:") and err.count("\n") == 1
        assert f"{data}: line 5: non-finite" in err
        assert not out.exists()


class TestSplineModelSection:
    """A NaN spline noise variance or ridge is a configuration fault."""

    @pytest.mark.parametrize("key", ["noise_variance", "ridge"])
    def test_nan_exits_three_naming_key(self, tmp_path, capsys, key):
        target, source = tmp_path / "t.txt", tmp_path / "s.txt"
        np.savetxt(target, [[1.0, 2.0], [2.0, 2.5], [3.0, 2.9]])
        np.savetxt(source, [[1.0, 2.1], [2.0, 2.4], [3.0, 3.0], [4.0, 3.4]])
        cfg = tmp_path / "cfg.json"
        model = {"kind": "spline_glm", "knots": [0.0, 2.0, 4.0], key: float("nan")}
        cfg.write_text(json.dumps({"model": model}))
        out = tmp_path / "report.txt"
        argv = ["run-em", "--target", str(target), "--sources", str(source),
                "--config", str(cfg), "--out", str(out)]
        assert dispatch(argv) == 3
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert f"[key: model.{key}]" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "knots", [[0.0, 4.0, 2.0], [0.0, 2.0, 1e400], [-1e400, 2.0, 4.0], [0.0, 4.0]]
    )
    def test_bad_knots_exit_three_naming_key(self, tmp_path, capsys, knots):
        target, source = tmp_path / "t.txt", tmp_path / "s.txt"
        np.savetxt(target, [[1.0, 2.0], [2.0, 2.5], [3.0, 2.9]])
        np.savetxt(source, [[1.0, 2.1], [2.0, 2.4], [3.0, 3.0], [4.0, 3.4]])
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"model": {"kind": "spline_glm", "knots": knots}}))
        out = tmp_path / "report.txt"
        argv = ["run-em", "--target", str(target), "--sources", str(source),
                "--config", str(cfg), "--out", str(out)]
        assert dispatch(argv) == 3
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert "[key: model.knots]" in err
        assert not out.exists()


    @pytest.mark.parametrize("width", [1, 3])
    def test_target_without_two_columns_is_a_parse_error(self, tmp_path, capsys, width):
        # a spline reads (input, response) rows; the sources match the
        # target's width, so the target file is the one named
        target, source = tmp_path / "t.txt", tmp_path / "s.txt"
        np.savetxt(target, np.arange(3.0 * width).reshape(3, width))
        np.savetxt(source, np.arange(4.0 * width).reshape(4, width))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"model": {"kind": "spline_glm", "knots": [0.0, 2.0, 4.0]}}))
        out = tmp_path / "report.txt"
        argv = ["run-em", "--target", str(target), "--sources", str(source), str(source),
                "--config", str(cfg), "--out", str(out)]
        assert dispatch(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: parse:") and err.count("\n") == 1
        assert f"{target} has {width} columns" in err
        assert not out.exists()


class TestConfigValueFaults:
    """Numbers whose square overflows, non-finite numbers, and sweep,
    generator and covariance values out of range: each is one error
    line naming its key with exit 3, never a traceback."""

    @staticmethod
    def _dispatch(cmapss_dir, argv, doc):
        cfg = cmapss_dir / "cfg.json"
        cfg.write_text(json.dumps(doc))
        if argv[0] == "run-em":
            target, source = cmapss_dir / "t.txt", cmapss_dir / "s.txt"
            np.savetxt(target, [[0.1], [-0.3], [0.2]])
            np.savetxt(source, np.random.default_rng(42).normal(size=(20, 1)))
            argv = argv + ["--target", str(target), "--sources", str(source), str(source)]
        if argv[:2] == ["bench", "cmapss"]:
            argv = argv + ["--data", str(cmapss_dir), "--engines", "4", "--cutoff", "0.5"]
        with warnings.catch_warnings():
            # the six-engine fixture file is smaller than FD001
            warnings.simplefilter("ignore", RuntimeWarning)
            return dispatch(argv + ["--config", str(cfg), "--out", str(cmapss_dir / "r")])

    @pytest.mark.parametrize(
        "command, doc, key",
        [
            # squares that overflow
            ("run-em", {"em": {"tau": 1e200}}, "em.tau"),
            ("bench gaussian", {"experiment": {"tau": 1e200}}, "experiment.tau"),
            ("bench gaussian", {"experiment": {"sigma": 1e200}}, "experiment.sigma"),
            ("bench oracle-mse", {"generator": {"sigma": 1e200}}, "generator.sigma"),
            ("bench oracle-mse", {"oracle": {"taus": [1e200]}}, "oracle.taus"),
            ("bench consistency", {"generator": {"tau": 1e200}}, "generator.tau"),
            ("bench cmapss", {"cmapss": {"tau": 1e200}}, "cmapss.tau"),
            # JSON reads 1e400 as inf and NaN as nan
            ("bench dichotomy", {"generator": {"shell": [1, 1e400]}}, "generator.shell"),
            ("run-em", {"em": {"nu": 1e400}}, "em.nu"),
            ("bench gaussian", {"experiment": {"nu": 1e400}}, "experiment.nu"),
            ("bench consistency", {"consistency": {"nu": 1e400}}, "consistency.nu"),
            ("run-em", {"em": {"tol": 1e400}}, "em.tol"),
            ("run-em", {"em": {"tau": float("nan")}}, "em.tau"),
            ("bench dichotomy", {"generator": {"spread": 1e400}}, "generator.spread"),
            ("bench dichotomy", {"generator": {"offset": 1e400}}, "generator.offset"),
            ("bench dichotomy", {"generator": {"theta0": [1e400]}}, "generator.theta0"),
            ("run-em", {"model": {"covariance": 1e400}}, "model.covariance"),
            # sweeps and generator settings, keyed where they are owned
            ("bench consistency", {"consistency": {"n0_sweep": [-5]}}, "consistency.n0_sweep"),
            ("bench consistency", {"consistency": {"n0_sweep": [0]}}, "consistency.n0_sweep"),
            ("bench dichotomy", {"dichotomy": {"n_sweep": [0]}}, "dichotomy.n_sweep"),
            ("bench dichotomy", {"dichotomy": {"priors": [1.5]}}, "dichotomy.priors"),
            ("bench cmapss", {"cmapss": {"p0": 2}}, "cmapss.p0"),
            ("bench oracle-mse", {"generator": {"theta0": []}}, "generator.theta0"),
            ("bench dichotomy", {"generator": {"theta0": []}}, "generator.theta0"),
            ("bench oracle-mse", {"oracle": {"n_weight_vectors": -1}}, "oracle.n_weight_vectors"),
            # Gaussian covariances
            ("run-em", {"model": {"covariance": [[1], [2, 3]]}}, "model.covariance"),
            ("run-em", {"model": {"covariance": -1}}, "model.covariance"),
            ("run-em", {"model": {"covariance": [[1, 2]]}}, "model.covariance"),
            # one source: these studies score under the mixture null
            ("bench gaussian", {"experiment": {"n_sources": 1}}, "experiment.n_sources"),
            (
                "bench consistency",
                {"generator": {"n_sources": 1, "relevant": [1]}},
                "generator.n_sources",
            ),
            (
                "bench dichotomy",
                {"generator": {"n_sources": 1, "relevant": [1]}},
                "generator.n_sources",
            ),
        ],
    )
    def test_exits_three_naming_key(self, cmapss_dir, capsys, command, doc, key):
        assert self._dispatch(cmapss_dir, command.split(), doc) == 3
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert err.endswith(f"[key: {key}]\n")
        assert not (cmapss_dir / "r").exists()

    @pytest.mark.parametrize("widths", [(1, 2), (2, 1)])
    def test_source_width_unlike_the_target_is_a_parse_error(self, tmp_path, capsys, widths):
        target, source = tmp_path / "t.txt", tmp_path / "s.txt"
        np.savetxt(target, np.ones((3, widths[0])))
        np.savetxt(source, np.ones((4, widths[1])))
        out = tmp_path / "report.txt"
        argv = ["run-em", "--target", str(target), "--sources", str(source), str(source),
                "--out", str(out)]
        assert dispatch(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: parse:") and err.count("\n") == 1
        assert f"{source} has {widths[1]} columns" in err
        assert f"{target} has {widths[0]}" in err
        assert not out.exists()


def test_python_dash_m_lipem_runs_the_cli():
    import os
    import subprocess
    import sys

    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-m", "lipem", "bench", "gaussian", "--help"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert done.returncode == 0
    assert done.stdout.startswith("usage: lipem bench gaussian")
    assert done.stderr == ""


def test_python_dash_m_lipem_cli_runs_the_cli():
    # runpy still warns that lipem.cli was imported by the package
    # before it ran as __main__; the command line works all the same
    import os
    import subprocess
    import sys

    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)

    def run(*argv):
        return subprocess.run(
            [sys.executable, "-m", "lipem.cli", *argv],
            capture_output=True, text=True, env=env, timeout=60,
        )

    done = run("--help")
    assert done.returncode == 0
    assert done.stdout.startswith("usage: lipem")
    done = run("transmogrify")
    assert done.returncode == 2
    assert "error: usage:" in done.stderr
