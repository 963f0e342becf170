"""Report files written whole or not at all."""

from __future__ import annotations

import contextlib
import os
import secrets
from pathlib import Path

__all__ = ["write_text_atomic"]


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
