"""The one CSV writer behind every table the package writes: bools and
integers print as %d, floats as %.17g, which round-trips float64 exactly,
and anything else as %s, so the bytes of a table follow from its values."""

import numpy as np

__all__ = ["write_csv"]


def _cell_format(kind: type) -> str:
    return ("%d" if issubclass(kind, (bool, np.bool_, int, np.integer))
            else "%.17g" if issubclass(kind, (float, np.floating)) else "%s")


def write_csv(path, header_lines, columns, rows) -> None:
    """Header lines, column names, then each row in the one %-format line of
    its tuple of cell types."""
    formats = {}
    with open(path, "w") as fh:
        for line in header_lines:
            fh.write(line + "\n")
        fh.write(",".join(columns) + "\n")
        for row in rows:
            row = tuple(row)
            kinds = (*map(type, row),)  # not tuple(): its resized tuples fill the free list
            if kinds not in formats:
                formats[kinds] = ",".join(map(_cell_format, kinds)) + "\n"
            fh.write(formats[kinds] % row)
