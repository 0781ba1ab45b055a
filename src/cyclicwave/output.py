"""Atomic file output: the CLI's one file writer and its one table layout."""

import os
import tempfile

import numpy as np


def write_atomic(path, text):
    """Write text to path exactly as given (no newline translation).

    The text goes to a temporary file in the target's directory, which then
    replaces the target in one rename: readers see the old file or the
    complete new one, and a failed write leaves no temporary file behind.
    """
    tmp = tempfile.NamedTemporaryFile(
        "w", dir=os.path.dirname(os.path.abspath(path)), delete=False, newline=""
    )
    try:
        tmp.write(text)
        tmp.close()
        os.replace(tmp.name, path)
    except BaseException:
        tmp.close()
        os.unlink(tmp.name)
        raise


def write_table(path, header, *columns):
    """Write a CSV table: the header row, then one row per entry of the
    equal-length columns, each line ended by \\r\\n (RFC 4180).

    A float column's cells have 17 significant digits, so they read back
    bit for bit; any other column is written as given.  No cell may hold a
    comma, a quote or a line break: nothing is quoted.
    """
    cells = [[f"{x:.17g}" for x in col.tolist()] if col.dtype.kind == "f" else col.tolist()
             for col in map(np.asarray, columns)]
    lines = [",".join(header)] + [",".join(row) for row in zip(*cells)]
    write_atomic(path, "\r\n".join(lines) + "\r\n")
