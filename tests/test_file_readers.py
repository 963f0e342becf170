"""Property tests of the file readers: any bytes end in the error contract.

Each reader is handed a file holding arbitrary bytes, or text shaped
like its own format so that examples get past the first line. It
returns, or raises a ``LipemError`` (which the command line prints as
one ``error:`` line); no other exception escapes.
"""

import tempfile
import warnings
from pathlib import Path

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from lipem.cli import ingest_cmapss, load_dataset  # noqa: E402
from lipem.errors import LipemError  # noqa: E402
from lipem.judge import ReplayLog  # noqa: E402
from lipem.lip import Lip, read_records  # noqa: E402

SMALL = settings(max_examples=30, deadline=None, database=None, derandomize=True)


def _shaped(alphabet):
    return st.text(alphabet=alphabet, max_size=120).map(str.encode)


def _turbofan_rows():
    token = st.sampled_from(["1", "2.5", "-0.0", "480.1", "inf", "nan", "1e999", "x"])
    row = st.lists(token, min_size=25, max_size=27).map(" ".join)
    return st.lists(row, max_size=4).map(lambda rows: "\n".join(rows).encode())


READERS = {
    "records": (read_records, False, _shaped("subgroup=choice;,0123456789-\n ")),
    "prior": (Lip.read, False, _shaped("K=alph_pi0123456789.-e\n ")),
    "dataset": (load_dataset, False, _shaped("0123456789.-e nai\n\t")),
    "turbofan file": (ingest_cmapss, False, _turbofan_rows()),
    "turbofan directory": (ingest_cmapss, True, _turbofan_rows()),
    "replay log": (ReplayLog, False, _shaped('{}[]":,key01 \n')),
}


@pytest.mark.parametrize("name", sorted(READERS))
def test_reader_returns_or_raises_a_package_error(name):
    reader, as_directory, shaped = READERS[name]

    @SMALL
    @given(st.binary(max_size=200) | shaped)
    @example(b"\xff\xfeK=2\n")
    @example(b" ".join([b"inf"] + [b"1"] * 25))
    def check(content):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "train_FD001.txt"
            path.write_bytes(content)
            # no reader warns, but a turbofan file with other than 100
            # engines does
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                warnings.filterwarnings("ignore", "expected 100 engines", RuntimeWarning)
                try:
                    reader(tmp if as_directory else path)
                except LipemError:
                    pass

    check()
