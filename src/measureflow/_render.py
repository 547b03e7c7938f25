"""The writer of ``ensemble.json`` and ``ensemble.csv``; standard library only.

:meth:`measureflow.paths.PathEnsemble.write_artifacts` calls
:func:`write_ensemble`, which renders the head paths in the calling process
while a second interpreter runs this file as a script on the tail paths::

    python -I -S _render.py IN JSON_OUT CSV_OUT START DIM

IN holds the rendered grid and the rendered weights of the paths from START
on, one line each with the tokens split by spaces, and then those paths' nodes
as native float64 bytes, path-major.  The script reads the nodes one block at
a time and writes the blocks' bytes to JSON_OUT and CSV_OUT.  ``-S`` leaves
site-packages off the path, so nothing here may import beyond the standard
library.  The script imports only ``os`` and ``sys``, so it starts in about
15 ms.
"""

import os
import sys

WRITE_BLOCK = 256  # paths per block: the unit of every write

PATH_CLOSE = "\n    ]\n   ]\n  }"  # ends a path's object in ensemble.json

# The worker renders this share of the paths, the tail ones.  It gets less
# than half because it also pays for interpreter start and for reading its
# input, and the caller then copies its output.  On 6,000 2-d paths of 33
# nodes (24 blocks) on a loaded 2-vCPU host, the writer took a median of
# 0.652 s in one process, and 0.473, 0.414, 0.379, 0.392 and 0.398 s at
# shares 0.35, 0.40, 0.45, 0.50 and 0.55 (12 interleaved runs each).
_WORKER_SHARE = 0.45
# No worker starts for fewer node floats than this: below it the worker's
# fixed cost, its interpreter start and 20-40 ms of CPU, outweighs its share.
# Timing `run` (cli.main) in one process against two on a 2-vCPU host, 20-30
# interleaved runs each, two processes were faster in 8/20 runs at 33,792
# floats (512 2-d paths of 33 nodes, two blocks), in 16/30 with no gain in
# the median at 45,056 (the tree-verify config: 4,096 1-d paths of 11
# nodes), in 14/20 at 50,688 (median 97 -> 80 ms), in 16/20 at 67,584
# (126 -> 95 ms) and in 18/20 at 101,376 (198 -> 139 ms).
_WORKER_MIN_FLOATS = 60_000
_WORKER = os.path.abspath(__file__)


def csv_header(dim: int) -> str:
    return ",".join(["path_id", "time", *[f"x{k}" for k in range(dim)], "weight"]) + "\n"


def node_blocks(nodes, per_path):
    """The slices of the flat ``nodes``, ``per_path`` floats a path, one per block."""
    size = WRITE_BLOCK * per_path
    return (nodes[lo : lo + size] for lo in range(0, len(nodes), size))


def render_blocks(grid, weights, dim, blocks, start=0):
    """Yield ``(json, csv)`` bytes per block for the paths from ``start`` on.

    ``grid`` and ``weights`` are rendered by ``repr``, ``weights[i]`` for path
    ``start + i``.  ``blocks`` yields each block's node floats flat and
    path-major, a list or a float64 memoryview, ``WRITE_BLOCK`` paths a block
    but the last.  Every float is rendered once, by ``repr`` as ``json`` and
    ``csv`` render it, into both files.  A block is one token list per file,
    joined into one write: the rendered coordinates interleaved with
    separators built once from the rendered grid and the dimension.  A
    block's JSON closes the previous path first unless it starts the
    ensemble; the caller closes the last path.
    """
    k1 = len(grid)
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
    first = 0  # paths before the block
    for block in blocks:
        coords = list(map(repr, block))
        b = len(coords) // per_path
        if b < WRITE_BLOCK:  # the last block
            json_t, csv_t = json_t[: 2 * len(coords)], csv_t[: b * k1 * width]
        json_t[1::2] = coords
        json_t[0] = (PATH_CLOSE + ",\n" if start + first else "") + head
        for k in range(dim):
            csv_t[2 + 2 * k :: width] = coords[k::dim]
        ids = map(str, range(start + first, start + first + b))
        csv_t[0::width] = [p for p in ids for _ in range(k1)]
        ends = [f",{w}\n" for w in weights[first : first + b]]
        csv_t[width - 1 :: width] = [e for e in ends for _ in range(k1)]
        first += b
        yield "".join(json_t).encode(), "".join(csv_t).encode()


def _available_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not on every platform
        return os.cpu_count() or 1


def _worker_split(n: int, floats: int) -> int:
    """The first path the worker renders, of ``n`` paths of ``floats`` node floats; ``n`` for none."""
    if floats < _WORKER_MIN_FLOATS or _available_cpus() < 2:
        return n
    return n - round(n * _WORKER_SHARE)


def write_ensemble(json_out, csv_out, grid, weights, dim, nodes, provenance) -> None:
    """Write ``ensemble.json`` and ``ensemble.csv`` to binary handles.

    ``grid`` and ``weights`` are rendered by ``repr``, ``nodes`` is a flat
    float64 memoryview of every path's nodes, path-major, and ``provenance``
    is the provenance's JSON text.  With at least ``_WORKER_MIN_FLOATS`` node
    floats and more than one CPU, a worker interpreter renders the tail paths
    (``_WORKER_SHARE`` of them) into a temporary directory while this process
    renders the head ones, and this process appends the worker's files after
    its own: the bytes of one process.  If the worker cannot start, or its
    directory cannot be made, this process renders its paths too.  On return
    the worker has exited or been killed, and its directory is removed.
    """
    import shutil  # here, not at the top: the worker script needs neither

    n = len(weights)
    per_path = len(nodes) // n
    csv_out.write(csv_header(dim).encode())
    json_out.write(b'{\n "paths": [\n')
    split = _worker_split(n, len(nodes))
    worker = tmp = None
    try:
        if split < n:
            tail = nodes[split * per_path :]
            worker, tmp = _start_worker(grid, weights[split:], dim, tail, split)
        stop = n if worker is None else split
        head = node_blocks(nodes[: stop * per_path], per_path)
        for json_b, csv_b in render_blocks(grid, weights, dim, head):
            json_out.write(json_b)
            csv_out.write(csv_b)
        if worker is not None:
            rc = worker.wait()
            if rc != 0:
                raise RuntimeError(
                    f"the render worker for paths {split} to {n - 1} exited with code {rc}"
                )
            for name, out in (("json", json_out), ("csv", csv_out)):
                with open(os.path.join(tmp, name), "rb") as part:
                    shutil.copyfileobj(part, out, 1 << 20)
    finally:
        if worker is not None and worker.poll() is None:
            worker.kill()
            worker.wait()
        if tmp is not None:
            shutil.rmtree(tmp)
    end = PATH_CLOSE + '\n ],\n "provenance": ' + provenance.replace("\n", "\n ")
    end += ',\n "weights": [\n' + ",\n".join("  " + w for w in weights) + "\n ]\n}\n"
    json_out.write(end.encode())


def write_input(path, grid, weights, nodes) -> None:
    """Write the worker's IN file: the grid and weight lines, then the node bytes."""
    with open(path, "wb") as f:
        f.write(f"{' '.join(grid)}\n{' '.join(weights)}\n".encode())
        f.write(nodes)


def _start_worker(grid, weights, dim, nodes, start):
    """A process rendering ``nodes``, paths ``start`` on, and the new directory it writes to.

    ``(None, None)`` if the directory, the input or the process cannot be made.
    """
    import shutil
    import subprocess
    import tempfile

    tmp = None
    try:
        tmp = tempfile.mkdtemp(prefix="measureflow-render-")
        src, json_part, csv_part = (os.path.join(tmp, name) for name in ("in", "json", "csv"))
        write_input(src, grid, weights, nodes)
        argv = [sys.executable, "-I", "-S", _WORKER, src, json_part, csv_part, str(start), str(dim)]
        return subprocess.Popen(argv, stdin=subprocess.DEVNULL), tmp
    except OSError:
        if tmp is not None:
            shutil.rmtree(tmp, ignore_errors=True)
        return None, None


def main(argv) -> None:
    src, json_path, csv_path, start, dim = argv
    dim = int(dim)
    with open(src, "rb") as f, open(json_path, "wb") as json_out, open(csv_path, "wb") as csv_out:
        grid = f.readline().decode().split()
        weights = f.readline().decode().split()
        size = 8 * WRITE_BLOCK * len(grid) * dim  # a block's node bytes
        blocks = (memoryview(b).cast("d") for b in iter(lambda: f.read(size), b""))
        for json_b, csv_b in render_blocks(grid, weights, dim, blocks, int(start)):
            json_out.write(json_b)
            csv_out.write(csv_b)


if __name__ == "__main__":
    main(sys.argv[1:])
