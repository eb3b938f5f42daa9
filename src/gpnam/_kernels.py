"""Hot numeric kernels: the term list, the evaluation points, the cosine
kernel, width halving, the Gram-operator matvec and the row-chunk thread runner.

``terms`` lists the additive terms that ``featurize``, ``solvers.stack_features``,
``model.usable_rows`` and ``model._folded_terms`` all read. ``term_points``
gives the points at which ``featurize`` and ``model._sum_terms`` evaluate a
term: a feature's term depends on one scalar, so it is evaluated once per
distinct value of its column and gathered back to the rows by an inverse
index; a pair's term is evaluated on every row.

There is one backend, plain numpy, and one cosine kernel, ``cosines``. It
fills every RFF block - the feature and pair tables of ``featurize``,
``rff.pair_feature_map`` and the folded terms of ``model.predict`` and
``model.shape_function`` - in place, in one arithmetic order. It is
elementwise, so an output element never depends on how rows are grouped.

``in_row_chunks`` shares a row range's chunks among WORKERS threads. It runs
``featurize``'s table rows and ``model.predict``'s cosines; numpy's cosine
and arithmetic loops release the GIL, so the threads use separate cores.

``halve_width`` turns an S-column block of a grid basis's cosines at kernel
width b into those at b/2 in place, by trig identities and without a cosine;
train's bandwidth search halves its tables so that one cosine pass serves.

``gram_apply`` (two BLAS GEMVs) has no caller in the package: the ridge
solver forms the Gram matrix once instead of applying it per iteration. It
stays only because the benchmark's span tracer, ``perfbench/spans.py``,
wraps it by name.
"""

import math
import os
import threading

import numpy as np

#: Name of the compute backend; the benchmark records it with its run.
BACKEND = "numpy"
# Complex pairs in halve_width's scratch: each chunk of rows holds at most
# this many (at least one row), so a small scratch stays in cache. On the
# benchmark's 90,628 x 101 regression table a halving took 29.5 ms at 3,200
# pairs, 22.6 ms at this many (512 rows), 25.6 ms at 51,200 and 35.3 ms at
# 102,400 (best of 7, 2-vCPU host).
HALVE_CHUNK = 25_600
# Threads that share in_row_chunks's chunks: one per CPU this process may run
# on (os.cpu_count() where the OS has no affinity call), at most 8.
WORKERS = min(len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
              else os.cpu_count() or 1, 8)
# Cosines featurize has in flight across its threads, S per table row; a
# smaller table is filled in the calling thread.
FEATURIZE_COSINES = 2**20


def terms(z, pair_z, widths, pairs):
    """Every additive term in design-matrix column order, as (input columns,
    kernel width, frequencies): each feature j, ((j,), widths[j], z[:, None]),
    then each pair, ((p, q), sqrt(widths[p] * widths[q]), pair_z)."""
    return ([((j,), widths[j], z[:, None]) for j in range(len(widths))]
            + [((p, q), math.sqrt(widths[p] * widths[q]), pair_z) for p, q in pairs])


def term_points(X, cols):
    """(points, index): the points at which a term on the columns ``cols`` of
    the n x d matrix ``X`` is evaluated, one row each, and the n-vector index
    of each row's point. A one-column term takes its column's distinct values,
    sorted, and the inverse index (``np.unique``); a pair term takes its
    columns' rows, with the identity index."""
    if len(cols) == 1:
        points, index = np.unique(X[:, cols[0]], return_inverse=True)
        return points[:, None], index
    return X[:, list(cols)], np.arange(X.shape[0])


def featurize(X, z, c, widths, pairs=(), pair_z=None):
    """Cosine table of every term of :func:`terms`, in its order: (table,
    index), with one entry of ``index`` per term.

    A term's rows of the table are sqrt(2/S) * cos(F . (u / width) + c) at
    each of its :func:`term_points` u, S columns after a bias column of ones;
    its entry of ``index`` is the inverse index of those points, so the
    term's n x S block of the stacked design matrix is its rows gathered by
    the index. The table is C-contiguous, with a row per distinct value of
    each feature's column and a row per data row for each pair. The inputs
    are float64 arrays that the callers have checked, with at least one
    feature; nothing is checked here.
    """
    S = z.shape[0]
    blocks = terms(z, pair_z, widths, pairs)
    points, index = zip(*[term_points(X, cols) for cols, _, _ in blocks])
    starts = np.cumsum([0] + [p.shape[0] for p in points])
    table = np.empty((starts[-1], 1 + S))
    scale = math.sqrt(2.0 / S)
    table[:, 0] = 1.0

    def fill(chunks, _):
        for rows in chunks:
            for (_, width, F), u, start, stop in zip(blocks, points, starts, starts[1:]):
                lo, hi = max(rows.start, start), min(rows.stop, stop)
                if lo < hi:
                    block = table[lo:hi, 1:]
                    cosines(list(u[lo - start:hi - start].T), width, F, c, block.T)
                    block *= scale

    in_row_chunks(table.shape[0], max(1, FEATURIZE_COSINES // S), fill)
    return table, list(index)


def in_row_chunks(n, in_flight, work):
    """Run ``work`` over the rows range(n), in chunks.

    ``work(chunks, rows)`` takes an iterator of row slices and the most rows
    a slice holds; it must write only its slices' rows of its output. An
    input of at most ``in_flight`` rows is one slice, worked in the calling
    thread. A longer one is split into slices of ``in_flight // WORKERS``
    rows, and WORKERS threads (the caller and WORKERS - 1 started here) take
    every WORKERS-th slice each, so at most ``in_flight`` rows are in flight
    whatever n and the thread count are. The first exception of any thread
    stops the others at their next slice and is raised here.
    """
    workers = WORKERS if n > in_flight else 1
    chunk = max(1, in_flight // workers)
    step = workers * chunk
    errors = []

    def run(first):
        def chunks():
            for start in range(first, n, step):
                if errors:
                    return
                yield slice(start, min(start + chunk, n))

        try:
            work(chunks(), min(chunk, n))
        except BaseException as exc:
            errors.append(exc)

    threads = []
    try:
        for first in range(chunk, step, chunk):
            thread = threading.Thread(target=run, args=(first,))
            thread.start()
            threads.append(thread)
        run(0)
    except BaseException as exc:  # a thread that would not start, or Ctrl-C
        errors.append(exc)
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]


def cosines(columns, width, F, phase, out):
    """Fill ``out`` (terms x rows, any strides) with
    cos(sum_k F[:, k] * (columns[k] / width) + phase); F and phase have one
    row per term, and ``columns`` one input vector per column of F."""
    np.multiply.outer(F[:, 0], columns[0] / width, out=out)
    for f, x in zip(F.T[1:], columns[1:]):
        out += np.multiply.outer(f, x / width)
    out += phase[:, None]
    np.cos(out, out=out)
    return out


def halve_width(block, c):
    """Halve the kernel width of ``block``, an n x S matrix of any strides, in
    place and return it. Its columns are sqrt(2/S) * cos(t_s + c_s) for a
    grid basis with phases ``c``: column S-1-s has a frequency z > 0 and
    phase c, and its mirror, column s, has -z and pi/2 - c, so with u = t + c
    the pair holds cos u and sin u. Afterwards every angle t is 2t, which is
    the features at half the width (z * (x / (b/2)) is exactly
    2 * (z * (x / b))), with no cosine evaluated:
    cos(2t + c) + i sin(2t + c) = e^{2iu} e^{-ic}, where
    e^{2iu} = (cos u + i sin u)^2 is cos 2u = cos^2 u - sin^2 u and
    sin 2u = 2 sin u cos u. An odd S's middle column (z = 0) is constant and
    stays. Rows go in chunks of at most HALVE_CHUNK complex pairs, so the
    scratch is O(HALVE_CHUNK). For S >= 4 an element's result depends on its
    row alone. For S = 2 and 3 it also depends on the chunks: a one-row chunk
    is a one-element complex product, which numpy rounds differently.
    """
    S = len(c)
    m = S // 2
    if m == 0:
        raise ValueError("halve_width needs S >= 2")
    if block.shape[1] != S:
        raise ValueError(f"halve_width needs S = {S} columns, got {block.shape[1]}")
    chunk = max(1, HALVE_CHUNK // m)
    # e^{-ic} / sqrt(2/S): one factor of the squared sqrt(2/S) comes off
    rotate = np.exp(-1j * c[S - m:]) / math.sqrt(2.0 / S)
    scratch = np.empty((min(len(block), chunk), m), dtype=np.complex128)
    for start in range(0, len(block), chunk):
        rows = block[start:start + chunk]
        cos_u, sin_u = rows[:, S - m:], rows[:, m - 1::-1]
        pair = scratch[:rows.shape[0]]
        pair.real, pair.imag = cos_u, sin_u
        pair *= pair
        pair *= rotate
        cos_u[...], sin_u[...] = pair.real, pair.imag
    return block


def gram_apply(phi, p):
    """Apply the (unregularized) Gram operator: phi.T @ (phi @ p)."""
    phi = np.asarray(phi, dtype=np.float64)
    p = np.asarray(p, dtype=np.float64)
    return phi.T @ (phi @ p)
