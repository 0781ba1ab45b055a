"""Atomic file output shared by every exporter and the CLI."""

import csv
import io
import os
import tempfile


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


def csv_text(rows):
    """CSV text of rows of strings, with the csv module's \\r\\n line ends."""
    buf = io.StringIO()
    csv.writer(buf).writerows(rows)
    return buf.getvalue()
