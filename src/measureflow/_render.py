"""The writer of ``ensemble.json`` and ``ensemble.csv``.

:meth:`measureflow.paths.PathEnsemble.write_artifacts` calls
:func:`write_ensemble`, which renders the paths in the calling process,
``WRITE_BLOCK`` paths at a time.  Every float is printed as ``repr`` prints
it, the shortest text that reads back to the same float, by :func:`_reprs`:
``orjson`` prints a whole array of floats in one call, and ``repr`` only the
values for which it uses exponent notation.  ``paths`` imports this module
on first use, so a command that renders no ensemble never imports ``orjson``.
"""

import numpy as np
import orjson

WRITE_BLOCK = 256  # paths per block: the unit of every write

PATH_CLOSE = "\n    ]\n   ]\n  }"  # ends a path's object in ensemble.json


def _reprs(values) -> list:
    """``list(map(repr, values.tolist()))`` for a float64 array, in one C call for most values.

    ``orjson`` prints the same shortest round-trip digits as ``repr``, but in
    positional notation where ``repr`` switches to an exponent (below 1e-4
    in magnitude, or from 1e16 on) and ``null`` for a non-finite value; those
    entries are printed by ``repr``.
    """
    x = np.asarray(values, dtype=float)
    xs = x.tolist()
    out = orjson.dumps(xs)[1:-1].decode().split(",") if xs else []
    a = np.abs(x)
    odd = ~np.isfinite(x) | ((a < 1e-4) & (x != 0)) | (a >= 1e16)
    for i in np.flatnonzero(odd).tolist():
        out[i] = repr(xs[i])
    return out


def csv_header(dim: int) -> str:
    return ",".join(["path_id", "time", *[f"x{k}" for k in range(dim)], "weight"]) + "\n"


def render_blocks(grid, weights, nodes):
    """Yield ``(json, csv)`` bytes per block of ``WRITE_BLOCK`` paths.

    ``grid`` and ``weights`` are the rendered times and path weights, and
    ``nodes`` is the ensemble's float64 array of shape (paths, times,
    dimension).  Every node float is rendered once, by :func:`_reprs`, into
    both files.  A block is one token list per file, joined into one write:
    the rendered coordinates interleaved with separators built once from the
    rendered grid and the dimension.  A block's JSON closes the previous path
    first unless it starts the ensemble; the caller closes the last path.
    """
    k1, dim = nodes.shape[1:]
    per_path = k1 * dim
    head = '  {\n   "grid": [\n' + ",\n".join("    " + t for t in grid)
    head += '\n   ],\n   "nodes": [\n    [\n     '
    # JSON: each coordinate follows its separator: a comma, a node bracket
    # or a path head, which first closes the previous path.
    path_json = [",\n     ", None] * per_path
    path_json[0 :: 2 * dim] = ["\n    ],\n    [\n     "] * k1
    path_json[0] = PATH_CLOSE + ",\n" + head
    json_t = path_json * WRITE_BLOCK
    # CSV row: path id, ",t_k,", the coordinates split by ",", ",w_i\n"
    width = 2 * dim + 2
    path_csv = []
    for t in grid:
        path_csv += [None, f",{t},", *[None, ","] * (dim - 1), None, None]
    csv_t = path_csv * WRITE_BLOCK
    for first in range(0, len(nodes), WRITE_BLOCK):  # paths before the block
        coords = _reprs(nodes[first : first + WRITE_BLOCK].reshape(-1))
        b = len(coords) // per_path
        if b < WRITE_BLOCK:  # the last block
            json_t, csv_t = json_t[: 2 * len(coords)], csv_t[: b * k1 * width]
        json_t[1::2] = coords
        json_t[0] = (PATH_CLOSE + ",\n" if first else "") + head
        for k in range(dim):
            csv_t[2 + 2 * k :: width] = coords[k::dim]
        ids = map(str, range(first, first + b))
        csv_t[0::width] = [p for p in ids for _ in range(k1)]
        ends = [f",{w}\n" for w in weights[first : first + b]]
        csv_t[width - 1 :: width] = [e for e in ends for _ in range(k1)]
        yield "".join(json_t).encode(), "".join(csv_t).encode()


def write_ensemble(json_out, csv_out, grid, weights, nodes, provenance) -> None:
    """Write ``ensemble.json`` and ``ensemble.csv`` to binary handles, block by block.

    ``grid``, ``weights`` and ``nodes`` are the ensemble's float64 arrays,
    and ``provenance`` is the provenance's JSON text.
    """
    grid, weights = _reprs(grid), _reprs(weights)
    csv_out.write(csv_header(nodes.shape[2]).encode())
    json_out.write(b'{\n "paths": [\n')
    for json_b, csv_b in render_blocks(grid, weights, nodes):
        json_out.write(json_b)
        csv_out.write(csv_b)
    end = PATH_CLOSE + '\n ],\n "provenance": ' + provenance.replace("\n", "\n ")
    end += ',\n "weights": [\n' + ",\n".join("  " + w for w in weights) + "\n ]\n}\n"
    json_out.write(end.encode())
