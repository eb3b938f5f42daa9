"""Hot numeric kernels: the term list, the evaluation points, the cosine
kernel, width halving, the Gram-operator matvec and the row-chunk thread
runner.

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

Every chunked pass cuts its rows so that a chunk costs about CHUNK_FLOATS
floats, whatever the thread count: ``featurize``'s table rows (S cosines a
row), ``model.predict``'s cosines (a term's folded cosines a value), the
halvings of ``halve_width`` and ``model._sum_terms``'s Clenshaw sums.
``in_row_chunks`` shares such chunks among WORKERS threads, and it starts
every thread of the package; numpy's cosine and arithmetic loops release the
GIL, so the threads use separate cores. ``halve_width`` and the Clenshaw
sums run their chunks in the calling thread. (``solvers.REDUCED_CHUNK`` is
another kind of constant: its chunks fix the summation order of the Grams,
and so the bits of the model file.)

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
# Floats one chunk of a chunked pass costs (at least one row a chunk), so a
# chunk's scratch, 512 KB, stays in cache. No output depends on it but
# halve_width's at S = 2 and 3. On the seed-93 benchmark inputs (2-vCPU host,
# medians of 6 processes' fastest of 9) a halving took 26.5, 26.6 and 31.7 ms
# at 2**15, 2**16 and 2**17, bulk predict 140, 124 and 117 ms, and its
# Clenshaw sums 25.1, 23.2 and 24.4 ms.
CHUNK_FLOATS = 2**16
# Threads that share in_row_chunks's chunks: one per CPU this process may run
# on (os.cpu_count() where the OS has no affinity call), at most 8.
WORKERS = min(len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
              else os.cpu_count() or 1, 8)


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
    feature; nothing is checked here. The table's rows go through
    :func:`in_row_chunks` at S floats a row; an entry depends on its own
    point alone, so the table does not depend on the chunks or threads.
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

    in_row_chunks(table.shape[0], S, fill)
    return table, list(index)


def in_row_chunks(n, per_row, work):
    """Run ``work`` over the rows range(n), in chunks.

    ``work(chunks, rows)`` takes an iterator of row slices and the most rows
    a slice holds; it must write only its slices' rows of its output. A
    slice holds max(1, CHUNK_FLOATS // per_row) rows (the last one may hold
    fewer), where ``per_row`` is the floats one row costs the pass; so the
    slices depend on n and per_row alone. One slice is worked in the calling
    thread. More are dealt round-robin to min(WORKERS, their count) threads,
    the caller and the others started here. The first exception of any
    thread stops the others at their next slice and is raised here.
    """
    chunk = max(1, CHUNK_FLOATS // per_row)
    workers = min(WORKERS, max(1, -(-n // chunk)))
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
    stays. Rows go in chunks of CHUNK_FLOATS // S (at least one), in the
    calling thread, so the complex scratch holds at most about CHUNK_FLOATS
    floats. For S >= 4 an element's result depends on its row alone. For
    S = 2 and 3 it also depends on the chunks: a one-row chunk is a
    one-element complex product, which numpy rounds differently.
    """
    S = len(c)
    m = S // 2
    if m == 0:
        raise ValueError("halve_width needs S >= 2")
    if block.shape[1] != S:
        raise ValueError(f"halve_width needs S = {S} columns, got {block.shape[1]}")
    chunk = max(1, CHUNK_FLOATS // S)
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
