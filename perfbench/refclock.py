"""A stopwatch in reference seconds, for a machine whose speed drifts.

On a small shared VM the speed of the machine changes by up to 2x for
seconds to minutes at a time, and CPU time follows wall time.  RefClock cuts
wall time into stretches at calibration points: each stretch is rescaled by
`ref_s` over the mean of the calibrations at its two ends (the seconds a
fixed kernel takes), and the calibrations themselves are not counted.
`checkpoint()` may be called while the timed work runs, so long work follows
changes of speed inside it.
"""

import time


class RefClock:
    def __init__(self, calibrate, ref_s):
        self.calibrate = calibrate
        self.ref_s = ref_s
        self.cal = calibrate()
        self.t = self.elapsed = 0.0

    def start(self):
        self.elapsed = 0.0
        self.t = time.perf_counter()

    def checkpoint(self):
        now = time.perf_counter()
        cal = self.calibrate()
        self.elapsed += (now - self.t) * 2.0 * self.ref_s / (self.cal + cal)
        self.cal = cal
        self.t = time.perf_counter()

    def stop(self):
        self.checkpoint()
        return self.elapsed
