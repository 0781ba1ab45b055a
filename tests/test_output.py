"""Atomic output: one writer module, and a failed write leaves no trace."""
from pathlib import Path

import pytest

from cyclicwave import output

PACKAGE = Path(output.__file__).parent


def test_single_atomic_writer():
    for token in ("tempfile.NamedTemporaryFile", "os.replace"):
        users = [p.name for p in sorted(PACKAGE.glob("*.py")) if token in p.read_text()]
        assert users == ["output.py"], token


def test_csv_text_keeps_crlf_line_ends(tmp_path):
    path = tmp_path / "a.csv"
    output.write_atomic(str(path), output.csv_text([["x", "u"], ["1", "2"]]))
    assert path.read_bytes() == b"x,u\r\n1,2\r\n"


class _Interrupted(Exception):
    pass


def _interrupt(*args):
    raise _Interrupted


@pytest.mark.parametrize("existing", [None, b"old contents\n"])
@pytest.mark.parametrize("failure", ["write", "rename"])
def test_failed_write_leaves_target_and_directory_untouched(
        tmp_path, monkeypatch, existing, failure):
    path = tmp_path / "out.json"
    if existing is not None:
        path.write_bytes(existing)
    text = "new contents\n"
    if failure == "rename":
        monkeypatch.setattr(output.os, "replace", _interrupt)
    else:
        text = "new \udc80 contents\n"  # a lone surrogate cannot be encoded
    with pytest.raises((_Interrupted, UnicodeEncodeError)):
        output.write_atomic(str(path), text)
    if existing is None:
        assert not path.exists()
    else:
        assert path.read_bytes() == existing
    assert sorted(p.name for p in tmp_path.iterdir()) == (
        [] if existing is None else ["out.json"])
