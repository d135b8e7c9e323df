"""Set-up time of a fresh interpreter, in reference seconds.

    python3 perfbench/setup_timer.py SRC_DIR BENCH_DIR WORKLOAD SEED

Imports germforge, then builds the workload's inputs, and prints the time
that took.  The clock is calibrated in this process, where the work runs,
with a pure-Python kernel (numpy may not be imported first: its import is
part of germforge's), at the start, at the end and every CHECK_S seconds of
import work, found through an import audit hook.
"""

import sys
import time

# kernel time at the reference speed
CAL_REF_S = 0.001
CHECK_S = 0.05


def _kernel():
    counts = {}
    acc = 0
    for k in range(2500):
        counts[k % 97] = counts.get(k % 97, 0) + k
        acc += len(str(k))
    return acc + len(counts)


def calibrate():
    best = float("inf")
    for _ in range(2):
        t0 = time.perf_counter()
        _kernel()
        best = min(best, time.perf_counter() - t0)
    return best


def main(src, bench, workload, seed):
    sys.path[:0] = [src, bench]
    from refclock import RefClock

    clock = RefClock(calibrate, CAL_REF_S)
    last = [time.perf_counter()]

    def on_import(event, args):
        if event == "import" and time.perf_counter() - last[0] > CHECK_S:
            clock.checkpoint()
            last[0] = time.perf_counter()

    clock.start()
    sys.addaudithook(on_import)
    import germforge  # noqa: F401
    import workloads

    workloads.build_ops(workload, int(seed), workloads.EvalCounter())
    print(repr(clock.stop()))


if __name__ == "__main__":
    main(*sys.argv[1:5])
