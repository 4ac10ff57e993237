"""Entry point of one op process, started fresh by run.py for every op.

    launch.py cli <trace 0|1> <sphmop arguments...>
        Import sphmop.cli, note the time, run the command.  Its stdout is
        the command's own output.
    launch.py phi <trace 0|1> <seed> <start> <seconds|ops:N>
        Import the package, warm up one Phi evaluation per (w, k), note the
        time, then evaluate pool points from `start` on for the given
        seconds or number of ops.  Its stdout is one JSON document.

Either way the last line on stderr is MARK followed by a JSON record with
the time.monotonic() value at which set-up finished and, when traced, the
span summary.  CLOCK_MONOTONIC is shared by all processes of the host, so
run.py subtracts its own spawn time from it.
"""

import json
import os
import sys
import time

MARK = "PERFBENCH-RECORD "
SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                   "src")


def run(mode, trace, args, record):
    if mode == "cli":
        import sphmop.cli
        record["ready"] = time.monotonic()
        record["tracer"] = _tracer(trace)
        return sphmop.cli.main(args)
    if mode == "phi":
        from sphmop import geometry
        import phi
        phi.warm_up(geometry.reconstruct_phi)
        record["ready"] = time.monotonic()
        seed, start, amount = int(args[0]), int(args[1]), args[2]
        pool = phi.make_pool(seed)
        record["tracer"] = _tracer(trace)
        if amount.startswith("ops:"):
            out = phi.timed_loop(geometry.reconstruct_phi, pool, start,
                                 ops=int(amount[4:]))
        else:
            out = phi.timed_loop(geometry.reconstruct_phi, pool, start,
                                 seconds=float(amount))
        json.dump(out, sys.stdout)
        return 0
    raise SystemExit(f"unknown mode {mode!r}")


def _tracer(enabled):
    if not enabled:
        return None
    from spans import Tracer
    return Tracer().install()


def main(argv):
    sys.path.insert(0, os.path.normpath(SRC))
    record = {}
    try:
        return run(argv[0], argv[1] == "1", argv[2:], record)
    finally:
        # written even when the op raised, so run.py can count it as failed
        sys.stdout.flush()
        tracer = record.pop("tracer", None)
        if tracer is not None:
            tracer.uninstall()
            record["spans"] = tracer.summary()
            record["missing"] = tracer.missing
        sys.stderr.write(MARK + json.dumps(record) + "\n")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
