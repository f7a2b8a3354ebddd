"""Text rows from whole columns: the one formatter of every CSV and edge-list row.

``row_chunks`` renders a %-template once per entry of its columns, a piece
of at most ``CHUNK_ROWS`` rows at a time, so a writer can write each piece
as it comes and hold only one piece's values and text; ``rows_text`` joins
the pieces.  Either way the bytes are those of one ``%`` over every row.
"""

from __future__ import annotations

from itertools import chain

import numpy as np

CHUNK_ROWS = 1 << 16


def row_chunks(row: str, *columns):
    """The %-template ``row`` (e.g. ``"%d,%.17g\\n"``) once per entry of the columns, in pieces.

    Yields strings of at most ``CHUNK_ROWS`` rows.  A column is any sequence
    that slices, such as an array, a tuple or a ``range``; each piece renders
    its slice of every column by one ``%`` over the interleaved values.
    ``%.17g`` round-trips floats.
    """
    total = len(columns[0])
    for start in range(0, total, CHUNK_ROWS):
        stop = min(start + CHUNK_ROWS, total)
        rows = zip(*(np.asarray(column[start:stop]).tolist() for column in columns))
        yield (row * (stop - start)) % tuple(chain.from_iterable(rows))


def rows_text(row: str, *columns) -> str:
    """``row_chunks`` joined: the template once per entry of the columns, as one string."""
    return "".join(row_chunks(row, *columns))
