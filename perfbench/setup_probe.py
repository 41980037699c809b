"""Time a fresh process's set-up: import uawq, build the field, and pay the
first-call lazy set-up (element table, square-root set-up, qpow cache).

Usage: python3 setup_probe.py <src dir> <p> <d>
Prints one JSON line with "setup_s", "setup_ref_s" (the same in reference
seconds, from a py calibrate.Sampler probing every 10 ms; see calibrate.py)
and the imported package's path.
"""

import json
import sys

# numpy is imported before the clock starts (calibrate imports it too).  Its
# import is most of a fresh process's set-up here, the same for every version
# of uawq, and its cost drifts with the host by a third within minutes, so
# counting it would bury what uawq's own set-up does.
import numpy  # noqa: F401

import calibrate


def warm_field(p: int, d: int):
    """ctx_new plus the first-call lazy set-up: element_table, the square-root
    set-up (reached through a public sqrt call) and the qpow cache."""
    import uawq

    ctx = uawq.ctx_new(p, d)
    ctx.element_table()
    uawq.sqrt(ctx.el(4))
    ctx.qpow(1)
    return ctx


def main() -> None:
    src, p, d = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])
    sys.path.insert(0, src)
    # Set-up takes a tenth of a second or so: probe it every 10 ms.
    sampler = calibrate.Sampler("py", 0.01)
    sampler.start()
    ref0, wall0 = sampler.read()
    warm_field(p, d)
    ref1, wall1 = sampler.read()
    sampler.stop()
    import uawq

    print(json.dumps({"setup_s": wall1 - wall0, "setup_ref_s": ref1 - ref0,
                      "uawq": uawq.__file__}))


if __name__ == "__main__":
    main()
