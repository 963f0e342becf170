"""Property tests of the CLI's error contract.

Whatever text the list flags carry and whatever JSON document --config
holds, ``dispatch`` returns 0, 1, 2 or 3 and never raises. The commands
are chosen to be cheap: a fit on an empty records file, a simulation of
a few records, and a turbofan study whose data directory is missing.
"""

import contextlib
import io
import json
import tempfile
import warnings
from pathlib import Path

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from lipem.cli import SECTION_SCHEMAS, dispatch  # noqa: E402

CONTRACT = (0, 1, 2, 3)
SMALL = settings(max_examples=40, deadline=None, database=None, derandomize=True)

# list-flag text: mostly number-like characters, sometimes anything
flag_text = st.text(alphabet="0123456789,.-+e x") | st.text(max_size=8)

numbers = (
    st.integers(-(10**20), 10**20)
    | st.floats(allow_nan=True, allow_infinity=True)
)
json_values = st.recursive(
    st.none() | st.booleans() | numbers | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=2),
    max_leaves=6,
)
# section and key names mostly drawn from the schema, so documents
# reach the type and range checks rather than stopping at the name
section_names = st.sampled_from(sorted(SECTION_SCHEMAS)) | st.text(max_size=4)
key_names = st.sampled_from(
    sorted({k for keys in SECTION_SCHEMAS.values() for k in keys})
) | st.text(max_size=4)
documents = st.dictionaries(
    section_names,
    st.dictionaries(key_names, json_values, max_size=4) | json_values,
    max_size=2,
) | json_values


def _run(argv) -> int:
    out, err = io.StringIO(), io.StringIO()
    # extreme values may raise numeric warnings; only the outcome is checked
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings(record=True):
        code = dispatch(argv)
    # a failure is one error line, never a traceback, and a
    # configuration fault names its key
    if code != 0:
        assert err.getvalue().startswith("error:")
        assert err.getvalue().count("\n") == 1
        assert len(err.getvalue().splitlines()) == 1
    if code == 3:
        assert "[key: " in err.getvalue()
    return code


@SMALL
@given(alpha=flag_text, sizes=flag_text)
@example(alpha="0,x", sizes="2")
@example(alpha="0,1,1", sizes="1,y")
@example(alpha="0,nan,1", sizes="1")
@example(alpha="0,1", sizes="1,,")
def test_simulate_oracle_list_flags_keep_the_contract(alpha, sizes):
    with tempfile.TemporaryDirectory() as tmp:
        argv = ["simulate-oracle", f"--alpha={alpha}", f"--sizes={sizes}",
                "--count", "3", "--out", str(Path(tmp) / "records.txt")]
        assert _run(argv) in CONTRACT


@SMALL
@given(cutoff=flag_text, engines=flag_text)
@example(cutoff="0.5,abc", engines="1")
@example(cutoff="0.5", engines="1,x")
@example(cutoff=",", engines="1")
@example(cutoff="0.5", engines=",")
def test_cmapss_list_flags_keep_the_contract(cutoff, engines):
    with tempfile.TemporaryDirectory() as tmp:
        argv = ["bench", "cmapss", "--data", str(Path(tmp) / "absent"),
                f"--cutoff={cutoff}", f"--engines={engines}",
                "--out", str(Path(tmp) / "reports")]
        assert _run(argv) in CONTRACT


@SMALL
@given(doc=documents)
@example(doc={"lip": {"tol": -1.0, "max_iters": 10**12}})
@example(doc={"lip": {"eps": 1e308, "max_iters": 10**12}})
@example(doc={"lip": {"p0": 1e-320}})
@example(doc={"\n": None})
@example(doc={"em": {"a\rb": 1}})
def test_any_config_document_keeps_the_contract(doc):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        cfg = tmp / "cfg.json"
        cfg.write_text(json.dumps(doc), encoding="utf-8")
        records = tmp / "records.txt"
        records.write_text("")
        runs = [
            ["fit-lip", "--records", str(records), "--sources", "3"],
            ["bench", "cmapss", "--data", str(tmp / "absent")],
        ]
        for argv in runs:
            code = _run([*argv, "--config", str(cfg), "--out", str(tmp / "out")])
            assert code in CONTRACT


@pytest.mark.parametrize(
    "argv",
    [
        ["bench", "cmapss", "--data", "absent", "--cutoff", ","],
        ["bench", "cmapss", "--data", "absent", "--engines", ","],
        ["bench", "cmapss", "--data", "absent", "--engines="],
        ["simulate-oracle", "--alpha", "0,1", "--sizes", "1,,"],
    ],
)
def test_an_empty_list_field_is_a_usage_error(argv, tmp_path):
    # an empty field never reads as the flag not given
    assert _run([*argv, "--out", str(tmp_path / "out")]) == 2
    assert not (tmp_path / "out").exists()


def test_an_elicitation_without_an_endpoint_names_its_variable(tmp_path, monkeypatch):
    monkeypatch.delenv("LIPEM_API_URL", raising=False)
    summaries = tmp_path / "summaries.json"
    summaries.write_text(json.dumps({"1": "first", "2": "second"}), encoding="utf-8")
    argv = ["elicit", "--summaries", str(summaries), "--context", "pick one",
            "--sizes", "1", "--count", "2", "--out", str(tmp_path / "records.txt")]
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        assert dispatch(argv) == 3
    assert err.getvalue().startswith("error:")
    assert err.getvalue().endswith("[key: LIPEM_API_URL]\n")
