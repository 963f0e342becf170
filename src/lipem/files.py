"""Text files read as UTF-8 or refused, report files written whole or not
at all, and the dataset files the commands read."""

from __future__ import annotations

import contextlib
import math
import os
import warnings
from pathlib import Path

import numpy as np

from .errors import DataNotFoundError, ParseError
from .likelihood import Dataset

__all__ = ["read_text", "write_text_atomic", "load_dataset", "ingest_cmapss",
           "FD001_INSTRUCTIONS"]

FD001_INSTRUCTIONS = (
    "C-MAPSS FD001 training data not found. Download the 'Turbofan Engine "
    "Degradation Simulation Data Set' from the NASA Prognostics Center of "
    "Excellence data repository (https://data.nasa.gov/ or the mirror at "
    "https://www.kaggle.com/datasets/behrad3d/nasa-cmaps), unzip it, and "
    "point --data at the directory containing train_FD001.txt."
)


def read_text(path) -> str:
    """Read ``path`` as UTF-8 text.

    A file that is not UTF-8 raises ``ParseError`` naming the file and
    the first undecodable byte; I/O errors propagate unchanged.
    """
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(
            f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})"
        ) from exc


def write_text_atomic(path, text: str) -> None:
    """Write ``text`` to ``path`` as UTF-8, replacing the file in one step.

    The text goes to a new temporary file in the same directory, which
    is then renamed over ``path``. A reader, or a rerun after the writer
    dies, finds the previous file or the complete new one, never a
    partial one. If the write fails, the temporary file is removed and
    ``path`` is left as it was. The file is not fsync'ed: this guards
    against a failed or killed writer, not against power loss.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.{os.urandom(4).hex()}.tmp")
    try:
        # mode "x" creates the file as plain open() does, so it gets the
        # usual permissions, and refuses to reuse an existing name
        with open(tmp, "x", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            tmp.unlink()
        raise


def load_dataset(path) -> Dataset:
    """Read a whitespace-delimited numeric matrix as a Dataset."""
    try:
        arr = np.loadtxt(path, ndmin=2)
    except OSError as exc:
        raise ParseError(f"cannot read dataset file {path}: {exc}") from exc
    except ValueError as exc:
        raise ParseError(f"dataset file {path} is not numeric: {exc}") from exc
    if arr.size == 0:
        arr = arr.reshape(0, max(arr.shape[1], 1) if arr.ndim == 2 else 1)
    bad = np.flatnonzero(~np.all(np.isfinite(arr), axis=1))
    if bad.size:
        raise ParseError(
            f"dataset file {path} has a non-finite value in data row {bad[0] + 1}"
        )
    return Dataset(arr)


def ingest_cmapss(path) -> dict[int, Dataset]:
    """Parse a C-MAPSS trajectory file into per-engine datasets.

    ``path`` is the file itself or a directory holding train_FD001.txt.
    Each row holds 26 whitespace-delimited values: unit id, cycle,
    three operational settings, then 21 sensor channels. The returned
    datasets carry (cycle, sensor 9) pairs ordered by cycle. A file
    with other than 100 engines only warns, so subsets work in tests.
    """
    path = Path(path)
    if path.is_dir():
        path = path / "train_FD001.txt"
    if not path.exists():
        raise DataNotFoundError(FD001_INSTRUCTIONS)
    rows: dict[int, list[tuple[float, float]]] = {}
    # split on newlines only, as iterating over the open file would
    for lineno, line in enumerate(read_text(path).split("\n"), start=1):
        fields = line.split()
        if not fields:
            continue
        where = f"{path}: line {lineno}"
        if len(fields) != 26:
            raise ParseError(
                f"{where}: expected 26 columns, found {len(fields)}",
                line_number=lineno,
            )
        try:
            unit = int(float(fields[0]))
            cycle = float(fields[1])
            sensor9 = float(fields[13])
        except (ValueError, OverflowError) as exc:  # not a number, or inf
            raise ParseError(
                f"{where}: non-numeric field: {exc}", line_number=lineno
            ) from exc
        # float() also parses nan and inf
        if not (math.isfinite(cycle) and math.isfinite(sensor9)):
            raise ParseError(
                f"{where}: non-finite cycle or sensor 9 value", line_number=lineno
            )
        rows.setdefault(unit, []).append((cycle, sensor9))
    engines: dict[int, Dataset] = {}
    for unit in sorted(rows):
        pts = np.asarray(rows[unit], dtype=float)
        pts = pts[np.argsort(pts[:, 0], kind="stable")]
        engines[unit] = Dataset(pts)
    if len(engines) != 100:
        warnings.warn(
            f"expected 100 engines, found {len(engines)}",
            RuntimeWarning,
            stacklevel=2,
        )
    return engines
