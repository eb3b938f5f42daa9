"""Benchmark the numba and numpy backends of RFF featurization.

Times featurization on a synthetic problem and prints a comparison table.
The numba function is compiled (and disk-cached) on a warmup call before
timing.

Usage:
    python benchmarks/bench_backends.py [--n 20000] [--d 8] [--S 100] [--repeats 5]
"""

import argparse
import time

from gpnam import _kernels, data, rff


def time_call(fn, repeats):
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def bench(n, d, S, repeats):
    ds = data.standardize(data.synth_additive(n, d, 0.3, seed=0))
    basis = rff.build_basis(S, "grid", 0)
    widths = data.kernel_widths(ds, 0.5)
    X = ds.X
    rows = []

    impls = [("numpy", _kernels._featurize_numpy)]
    if _kernels._HAVE_NUMBA:
        impls.append(("numba", _kernels._featurize_numba))
    else:
        print("numba unavailable; timing numpy only")

    for name, featurize in impls:
        featurize(X[:64], basis.z, basis.c, widths)  # warmup / jit compile
        rows.append((name, time_call(lambda: featurize(X, basis.z, basis.c, widths),
                                     repeats)))

    print(f"\nn={n} d={d} S={S} (D*={S * d + 1}), best of {repeats}")
    print(f"{'backend':<8} {'featurize':>12}")
    for name, t_feat in rows:
        print(f"{name:<8} {t_feat:>11.4f}s")
    if len(rows) == 2:
        print(f"{'speedup':<8} {rows[0][1] / rows[1][1]:>11.2f}x")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--n", type=int, default=20_000)
    ap.add_argument("--d", type=int, default=8)
    ap.add_argument("--S", type=int, default=100)
    ap.add_argument("--repeats", type=int, default=5)
    args = ap.parse_args()
    bench(args.n, args.d, args.S, args.repeats)


if __name__ == "__main__":
    main()
