"""One measuring process of an untraced run: build the workload from the
seed, run passes for about the given seconds (at least one) with a
calibrate.Sampler running, and report them.

Usage: python3 measure.py <workload> <seed> <size> <seconds>
run.py starts it with src/ and perfbench/ on PYTHONPATH and its own
PYTHONHASHSEED.  Prints one JSON line with "passes" (items, failed, digest,
the wall, CPU, reference wall and reference CPU seconds of each unit of
each pass), "times" (pass seconds) and "rss_kb" (peak RSS of
this process plus the largest of its workers).
"""

import json
import resource
import sys

import calibrate
import run
import workloads


def main() -> None:
    name, seed, size, seconds = sys.argv[1], int(sys.argv[2]), sys.argv[3], float(sys.argv[4])
    wl = workloads.WORKLOADS[name](seed, size)
    wl.sampler = calibrate.Sampler(wl.calibration)
    wl.sampler.start()
    try:
        results, times = run.run_passes(wl, seconds, min_passes=1)
    finally:
        wl.sampler.stop()
    rss_kb = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
              + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    print(json.dumps({"passes": [list(r) for r in results], "times": times,
                      "rss_kb": rss_kb}))


if __name__ == "__main__":
    main()
