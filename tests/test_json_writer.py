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


B = cli_io._BLOCK_ROWS


@pytest.mark.parametrize("value, blocks", [
    ([[1], [2, 3], [4, 5, 6], [7, 8], [9]], 1),  # ragged rows: one template per length
    ([[i % 5] * (1 + i % 4) for i in range(2 * B + 3)], 3),
    ([42], 1),
    ([-7], 1),
    (list(range(-B, 2 * B)), 3),  # a flat list, also written block by block
    ([[2**64, -(2**64) - 1], [3, 2**200]], 1),
    ([2**64 + 1, -(2**70), 10**30], 1),
    ([[1, 2], [True, 3]], None),  # a bool or None in a row: item by item
    ([[1, None], [2, 3]], None),
    ([[0, 1], [2, False]], None),
    ([1, False, 2], None),
    ([None, 5], None),
    ([[1, 2], [], [3]], None),
    ([[1, 2], (3, 4)], None),
])
def test_int_row_kernel_and_its_fallback_match_json_dump(value, blocks):
    """Int rows and flat int lists take one write per block of B rows; a list
    holding anything else is written item by item.  Both give json's bytes."""
    writes = []
    cli_io._dump_json(value, writes.append, "\n")
    assert "".join(writes) + "\n" == _dumped(value)
    if blocks is None:
        assert len(writes) >= 2 * len(value) + 1
    else:
        assert len(writes) == blocks + 1


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
