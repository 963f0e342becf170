"""Text files read as UTF-8 or refused, and report files written whole or
not at all."""

from __future__ import annotations

import contextlib
import os
import secrets
from pathlib import Path

from .errors import ParseError

__all__ = ["read_text", "write_text_atomic"]


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
    tmp = path.with_name(f".{path.name}.{os.getpid()}.{secrets.token_hex(4)}.tmp")
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
