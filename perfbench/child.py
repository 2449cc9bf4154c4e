"""Fresh-interpreter worker started by run.py.

    python3 perfbench/child.py ready
        import hartogs and its CLI, print ``ready`` and exit (a set-up probe);
    python3 perfbench/child.py verify --seed S [--smoke] [--spans PATH] [--period P]
        print ``ready`` after the imports, run one ``verify.run_all(S)`` pass
        (traced into PATH when given) and print its result as one JSON line.

The pass is timed with a ``stream`` calibration.Clock, which also
calibrates every P seconds when ``--period`` is given.

The parent puts the checkout's ``src`` first on PYTHONPATH and scrubs the
environment before starting this process.
"""

import argparse
import json
import sys

import hartogs
import hartogs.cli  # noqa: F401  (part of the program's import set-up)
from hartogs import verify

# Suites cheap enough for the smoke mode (about a second together).
SMOKE_SUITES = ("normalization", "critical-range", "schur-feasibility", "blowup", "hardy-limit")


def _verify_pass(seed, smoke):
    if smoke:
        return [verify.run_suite(name, seed=seed) for name in SMOKE_SUITES]
    return verify.run_all(seed)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("ready", "verify"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--spans")
    parser.add_argument("--period", type=float)
    args = parser.parse_args()
    print("ready", hartogs.__file__, flush=True)
    if args.mode == "ready":
        return 0
    from calibration import Clock
    from tracer import traced

    clock = Clock("stream", args.period)
    with traced(args.spans):
        results = clock(_verify_pass, args.seed, args.smoke)
    clock.mark()
    suites = [{"name": r.name, "passed": bool(r.passed), "message": r.message} for r in results]
    print(json.dumps({"pass_s": clock.seconds, "pass_cal": clock.cost, "suites": suites}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
