"""Whole-file writes: an output file is replaced in one step or not at all.

Every file the package writes (analysis and causal bundles, decision
logs, sweep results and their per-cell cache entries, Chrome traces)
goes through :func:`write_atomic`, so a write killed partway never
leaves half a file for a later reader to trip over.
:func:`check_writable` lets a command find an unusable output path
before it spends a run on it.
"""

from __future__ import annotations

import errno
import os
from contextlib import suppress


def _temporary_sibling(path: str) -> str:
    """Create ``path``'s missing parent directories; return the name of
    the temporary file a write to ``path`` goes through."""
    directory = os.path.dirname(path)
    if directory and not os.path.exists(directory):
        os.makedirs(directory, exist_ok=True)
    return f"{path}.{os.getpid()}.tmp"


def write_atomic(path: str, text: str) -> None:
    """Write ``text`` to ``path`` whole or not at all.

    The text goes to a temporary sibling that one ``os.replace`` puts in
    place, so a write killed partway leaves the previous file (or none).
    A write that fails removes its temporary file.  Missing parent
    directories are created.
    """
    tmp = _temporary_sibling(path)
    try:
        with open(tmp, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        with suppress(OSError):
            os.remove(tmp)
        raise


def check_writable(path: str) -> None:
    """Raise the ``OSError`` a :func:`write_atomic` to ``path`` would meet.

    Creates what that write would (missing parent directories) and
    removes the temporary file it writes beside ``path``.
    """
    if os.path.isdir(path):
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
    tmp = _temporary_sibling(path)
    with open(tmp, "w"):
        pass
    os.remove(tmp)
