"""Atomic file output, and JSON input: every file the package writes, and
every JSON value it reads, goes through here."""

from __future__ import annotations

import errno
import json
import os
import tempfile


def read_json(path, data=None):
    """The JSON value in ``data`` (bytes), or in the whole file at ``path``
    when ``data`` is None.  Bytes that are not UTF-8, text that is not JSON
    and nesting too deep to parse are each a ValueError naming ``path``."""
    if data is None:
        with open(path, "rb") as fh:
            data = fh.read()
    try:
        return json.loads(data.decode("utf-8"))
    except RecursionError:
        raise ValueError("%s: JSON nested too deeply" % path) from None
    except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
        raise ValueError("%s: %s" % (path, exc)) from None


def check_output(path):
    """Raise the OSError, naming ``path``, that a write to it would end in
    because it is empty, names a directory or its directory is missing."""
    if os.path.isdir(path):
        raise OSError(errno.EISDIR, os.strerror(errno.EISDIR), path)
    if not path or not os.path.isdir(os.path.dirname(os.path.abspath(path))):
        raise OSError(errno.ENOENT, os.strerror(errno.ENOENT), path)


def atomic_write(path, data):
    """Write ``data`` (str or bytes) to ``path`` via a temp file and a rename.

    Readers see either the previous file or the complete new one; on any
    failure the temp file is removed and the previous file is left intact.
    An OSError with an error code names ``path``, not the temp file.  The
    file gets the mode a plain ``open`` would give it under the umask.
    """
    if isinstance(data, str):
        data = data.encode("utf-8")
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(
            dir=os.path.dirname(os.path.abspath(path)), prefix=".tmp-")
        with os.fdopen(fd, "wb") as fh:
            umask = os.umask(0)
            os.umask(umask)
            os.fchmod(fh.fileno(), 0o666 & ~umask)
            fh.write(data)
        os.replace(tmp, path)
    except BaseException as exc:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)
        if isinstance(exc, OSError) and exc.errno is not None:
            raise OSError(exc.errno, exc.strerror, path) from exc
        raise
