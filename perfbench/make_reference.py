"""Write reference.json: the exact artifacts' digests and the verify row
labels of each verify-* grid, taken from fresh op processes.

    python3 perfbench/make_reference.py

Exact reports must stay byte-identical, so this is run once, on the commit
that defines the benchmark, and its output is committed.
"""

import json
import os

from run import (HERE, WORKLOADS, artifact_digests, parse_verify_output,
                 spawn, verify_op_ok)


def main():
    doc = {}
    for name, spec in WORKLOADS.items():
        if spec["kind"] != "verify":
            continue
        ell, wmax = spec["ell"], spec["wmax"]
        op = spawn(["cli", "0", "verify", "--ell", str(ell),
                    "--wmax", str(wmax)])
        labels = [label for _, label in parse_verify_output(op["out"])]
        if not verify_op_ok(op, labels):
            raise SystemExit(f"{name}: verify did not pass; no reference")
        doc[name] = {"ell": ell, "wmax": wmax,
                     "digests": artifact_digests(ell, wmax),
                     "labels": labels}
    with open(os.path.join(HERE, "reference.json"), "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


if __name__ == "__main__":
    main()
