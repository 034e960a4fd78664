"""Plain BLAS reference: GFLOP/s of a complex 1296 x 1296 matmul.

1296 = 6^4 is the moment-matrix size of the n = 6, degree-4 probe, so this
is the rate its Cesaro loop could reach.  Run in its own process so the
thread count can be set before numpy loads:

    python3 bench/blas_ref.py THREADS

Prints one JSON object with the median rate of three timed products, taken
after an untimed one has started the BLAS threads.
"""

import json
import os
import sys

THREADS = sys.argv[1]
os.environ["OPENBLAS_NUM_THREADS"] = THREADS
os.environ["OMP_NUM_THREADS"] = THREADS

import statistics  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402

N = 1296


def main() -> None:
    rng = np.random.default_rng(0)
    a = rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N))
    b = rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N))
    a @ b
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        a @ b
        times.append(time.perf_counter() - t0)
    seconds = statistics.median(times)
    print(json.dumps({"threads": int(THREADS), "gflops": 8 * N ** 3 / seconds / 1e9}))


if __name__ == "__main__":
    main()
