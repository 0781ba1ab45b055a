"""Atomic output: one writer module, only the CLI writes files, a table
reads as the csv module writes it, and a failed write leaves no trace."""
import ast
import csv
import io
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from cyclicwave import output

PACKAGE = Path(output.__file__).parent


def _imports(path):
    """Every dotted part of every module a source file imports, and every
    name it imports from one: `from .output import x`, `from . import
    output` and `import cyclicwave.output` all give "output"."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names.update(alias.name.split("."))
        elif isinstance(node, ast.ImportFrom):
            names.update((node.module or "").split("."))
            names.update(alias.name for alias in node.names)
    return names


def test_single_atomic_writer():
    for token in ("tempfile.NamedTemporaryFile", "os.replace"):
        users = [p.name for p in sorted(PACKAGE.glob("*.py")) if token in p.read_text()]
        assert users == ["output.py"], token
    modules = sorted(PACKAGE.glob("*.py"))
    assert [p.name for p in modules if "output" in _imports(p)] == ["cli.py"]
    assert [p.name for p in modules if "csv" in _imports(p)] == []


def _csv_writer_bytes(header, columns):
    """The table as the csv module writes it, each float as f"{x:.17g}"."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    cells = [[f"{x:.17g}" for x in col] if col.dtype.kind == "f" else list(col)
             for col in columns]
    writer.writerows(zip(*cells))
    return buf.getvalue().encode()


_EDGES = [-0.0, 0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 2.2250738585072009e-308,
          1e308, -1e308, 1.7976931348623157e308]
_CELLS = st.one_of(st.sampled_from(_EDGES), st.floats())


@st.composite
def _tables(draw):
    rows = draw(st.integers(0, 12))
    width = draw(st.integers(1, 4))
    floats = [np.array(draw(st.lists(_CELLS, min_size=rows, max_size=rows)), dtype=float)
              for _ in range(width)]
    words = np.array(draw(st.lists(st.sampled_from(["stable", "unstable", "boundary"]),
                                   min_size=rows, max_size=rows)), dtype=str)
    cols = floats + [words]
    order = draw(st.permutations(range(len(cols))))
    return [f"c{i}" for i in order], [cols[i] for i in order]


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(table=_tables())
@example(table=(["x", "class"], [np.array([]), np.array([], dtype=str)]))
def test_write_table_matches_csv_writer(tmp_path_factory, table):
    """write_table gives the csv module's bytes (\\r\\n line ends, no
    quoting needed) over 17-significant-digit floats, for signed zeros,
    infinities, nan, subnormals, the largest floats, class words and a
    table of no rows."""
    header, columns = table
    path = tmp_path_factory.mktemp("table") / "t.csv"
    output.write_table(str(path), header, *columns)
    assert path.read_bytes() == _csv_writer_bytes(header, columns)


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
