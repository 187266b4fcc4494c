"""Float-to-text conversion shared by every writer in the package.

Model files, trajectory CSVs and CLI output all store doubles as ``.17g``
text, which round-trips every finite double exactly. Formatting is the bulk
of their cost, so whole arrays are converted at once: the nonzero entries go
through a single ``%`` over a tuple, and zeros, which make up almost half of
a typical model file (the imaginary parts of real matrices), are filled in
as ``"0"`` without calling the formatter.

The sign of zero is kept: ``-0.0`` becomes ``"-0"``. Writers that must not
emit ``"-0"`` add ``+ 0.0`` to their array first.
"""

from __future__ import annotations

import numpy as np

# Rows formatted and written per piece, so no single string holds a whole
# table (a long forecast in particular).
_CHUNK_ROWS = 4096


def float_texts(values) -> list[str]:
    """``format(v, ".17g")`` for every entry of ``values``, in C order."""
    flat = np.asarray(values, dtype=float).ravel()
    keep = np.flatnonzero((flat != 0.0) | np.signbit(flat))
    if keep.size == flat.size:
        return ("%.17g\0" * flat.size % tuple(flat.tolist())).split("\0")[:-1]
    out = np.full(flat.size, "0", dtype=object)
    if keep.size:
        out[keep] = ("%.17g\0" * keep.size % tuple(flat[keep].tolist())).split("\0")[:-1]
    return out.tolist()


def write_rows(handle, table, labels=None) -> None:
    """Write each row of a 2-D float array as one line of comma-separated text.

    ``labels``, when given, holds one integer per row, written as the row's
    first field. Lines end in a single ``\\n``.
    """
    table = np.asarray(table, dtype=float)
    width = table.shape[1]
    for start in range(0, table.shape[0], _CHUNK_ROWS):
        texts = float_texts(table[start : start + _CHUNK_ROWS])
        rows = [",".join(texts[i : i + width]) for i in range(0, len(texts), width)]
        if labels is not None:
            rows = [f"{int(k)},{row}" for k, row in zip(labels[start : start + len(rows)], rows)]
        handle.write("\n".join(rows) + "\n")
