"""Atomic file output: every file the package writes goes through here."""

from __future__ import annotations

import os
import tempfile


def atomic_write(path, data):
    """Write ``data`` (str or bytes) to ``path`` via a temp file and a rename.

    Readers see either the previous file or the complete new one; on any
    failure the temp file is removed and the previous file is left intact.
    The file gets the mode a plain ``open`` would give it under the umask.
    """
    if isinstance(data, str):
        data = data.encode("utf-8")
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(path)),
                               prefix=".tmp-")
    try:
        with os.fdopen(fd, "wb") as fh:
            umask = os.umask(0)
            os.umask(umask)
            os.fchmod(fh.fileno(), 0o666 & ~umask)
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
