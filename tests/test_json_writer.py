"""The CLI's JSON writer writes exactly what ``json.dump(indent=2,
sort_keys=True)`` writes, and holds only one block of a long list at a time."""

import contextlib
import io
import json
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nntrav.cli as cli
import nntrav.cli_io as cli_io

# structure characters and escapes that a compact re-indent must not touch
TEXT = st.text(alphabet=st.sampled_from('ab[],{}:" \\\n\té'), max_size=6)
SCALARS = st.one_of(st.none(), st.booleans(), st.integers(-10**20, 10**20), st.floats(), TEXT)
INT_ROWS = st.lists(st.lists(st.integers(-999, 999), max_size=3), max_size=6)
JSON_VALUES = st.recursive(
    st.one_of(SCALARS, INT_ROWS, st.lists(st.integers(), max_size=5)),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(st.lists(st.one_of(st.integers(-9, 9), st.none(), st.booleans()), max_size=3),
                 max_size=3),
        st.dictionaries(TEXT, children, max_size=4),
        st.dictionaries(st.integers(-50, 50), children, max_size=4),
        st.dictionaries(st.one_of(st.booleans(), st.floats()), children, max_size=3),
    ),
    max_leaves=24,
)


def _written(value) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli_io._write_json(None, value)
    return out.getvalue()


def _dumped(value) -> str:
    return json.dumps(value, indent=2, sort_keys=True) + "\n"


@given(JSON_VALUES)
@settings(max_examples=300, deadline=None)
def test_writer_matches_json_dump(value):
    assert _written(value) == _dumped(value)


@pytest.mark.parametrize("length", [cli_io._BLOCK_ROWS, cli_io._BLOCK_ROWS + 1,
                                    3 * cli_io._BLOCK_ROWS])
def test_block_edges_match_json_dump(length):
    rows = [[i, -i, i * i][: 1 + i % 3] for i in range(length)]
    flat = [i * 7 - 100 for i in range(length)]
    doc = {"edges": rows, "order": flat, "nested": {"rows": rows, "flat": flat}, "in": [rows]}
    assert _written(doc) == _dumped(doc)


def test_generate_peak_memory_stays_bounded(tmp_path):
    """The n = 140 instance has 9,730 weight triples; written as one string
    they would raise the op's traced peak to about 5.4 MB.  With blocks of 256
    rows it peaks where the json.dump writer did, 3.1-3.2 MB (Python 3.11)."""
    argv = ["generate", "random-metric", "--n", "140", "--output", str(tmp_path / "m.json")]
    assert cli.main(argv) == 0  # imports and first-use caches stay out of the peak
    tracemalloc.start()
    try:
        assert cli.main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3_300_000
