"""Machine peaks for the roofline: float32 GEMM rate and triad bandwidth.

Run as its own process (`python3 bench/machine.py --l3-bytes N`) so its
large arrays do not count in the workload's peak RSS. Prints one JSON
object on the last line of stdout.

The triad a = b + s*c streams three float32 arrays whose total size is at
least four times the last-level cache, so caches cannot serve it; the
scaled product goes through an L2-sized scratch block, which keeps main
memory traffic at the STREAM count of two reads and one write per element.
"""

import argparse
import json
import statistics
import time

import numpy as np

GEMM_N = 1024
REPEATS = 7
BLOCK = 1 << 16  # float32 elements of scratch per triad block (256 KiB)


def gemm_gflops() -> float:
    rng = np.random.default_rng(0)
    a = rng.random((GEMM_N, GEMM_N), dtype=np.float32)
    b = rng.random((GEMM_N, GEMM_N), dtype=np.float32)
    c = a @ b
    times = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        np.matmul(a, b, out=c)
        times.append(time.perf_counter() - t0)
    return 2 * GEMM_N**3 / statistics.median(times) / 1e9


def triad_gbps(l3_bytes: int):
    n = -(-4 * l3_bytes // (3 * 4))  # elements per array: 3 arrays >= 4 x L3
    n = -(-n // BLOCK) * BLOCK
    a = np.zeros(n, np.float32)
    b = np.full(n, 1.0, np.float32)
    c = np.full(n, 2.0, np.float32)
    tmp = np.empty(BLOCK, np.float32)
    s = np.float32(3.0)
    times = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        for i in range(0, n, BLOCK):
            np.multiply(c[i : i + BLOCK], s, out=tmp)
            np.add(b[i : i + BLOCK], tmp, out=a[i : i + BLOCK])
        times.append(time.perf_counter() - t0)
    if a[0] != 7.0 or a[-1] != 7.0:
        raise RuntimeError("triad produced a wrong result")
    return 3 * 4 * n / statistics.median(times) / 1e9, 3 * 4 * n


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--l3-bytes", type=int, required=True)
    args = parser.parse_args()
    bandwidth, footprint = triad_gbps(args.l3_bytes)
    print(json.dumps({
        "gemm_gflops": gemm_gflops(),
        "gemm_n": GEMM_N,
        "triad_gbps": bandwidth,
        "triad_bytes": footprint,
        "l3_bytes": args.l3_bytes,
    }))


if __name__ == "__main__":
    main()
