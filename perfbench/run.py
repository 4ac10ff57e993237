"""sphmop benchmark: one workload, one seed, one measured run.

    python3 perfbench/run.py --workload verify-wide --seed 1 --seconds 30 \
        --trace 0

Run from the root of a source checkout; the package is imported from
`src/`.  This process starts at most one op process (perfbench/launch.py)
at a time, closed loop, one client:

  verify-wide, verify-deep  each op is `sphmop verify` in a fresh
      interpreter, so every cache starts cold as it does for a user.
  phi-haar  a few op processes in turn, each warm after its set-up,
      evaluate `geometry.reconstruct_phi` at seeded points (see phi.py).

With --trace 0 the last stdout line reports the end-to-end metrics; with
--trace 1 it reports the per-layer spans of spans.py.  Outputs are checked
outside the timed ops: verify rows and reference digests of exact artifacts
(reference.json), and Phi against the exact layer (phi.Oracle).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import selectors
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
LAUNCH = os.path.join(HERE, "launch.py")
ROOT = os.path.dirname(HERE)

# small numpy kernels gain nothing from a thread pool, and one op process
# should not contend with the other core
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# each workload is dominated by layers that the others bypass (BENCHMARK.json
# says which), so a gain in one layer shows on one workload and not on all
WORKLOADS = {
    "verify-wide": {"kind": "verify", "ell": 8, "wmax": 2},
    "verify-deep": {"kind": "verify", "ell": 2, "wmax": 12},
    "phi-haar": {"kind": "phi"},
}
PHI_SEGMENTS = 3          # op processes per untraced phi-haar run
OP_DEADLINE_S = 60.0      # an op process still running after this is killed,
                          # so a run ends within its 180 s limit

END_TO_END = {
    "verify_s": "s",
    "phi_evals_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_ratio": "ratio",
}


class OpFailed(RuntimeError):
    pass


def op_env():
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONHASHSEED"] = "0"
    env.pop("PYTHONPATH", None)
    return env


def _drain(proc, deadline):
    """Read stdout and stderr of proc to EOF, killing it at the deadline."""
    chunks = {proc.stdout: [], proc.stderr: []}
    with selectors.DefaultSelector() as sel:
        for f in chunks:
            sel.register(f, selectors.EVENT_READ)
        while sel.get_map():
            left = deadline - time.monotonic()
            if left <= 0:
                proc.kill()
                left = 5.0
            for key, _ in sel.select(timeout=left):
                data = os.read(key.fd, 1 << 16)
                if data:
                    chunks[key.fileobj].append(data)
                else:
                    sel.unregister(key.fileobj)
    proc.stdout.close()
    proc.stderr.close()
    return b"".join(chunks[proc.stdout]), b"".join(chunks[proc.stderr])


def spawn(args):
    """Run one op process to its end.  Returns wall seconds from spawn to
    exit, seconds from spawn to the end of its set-up, peak RSS in MB (from
    wait4), exit code, stdout bytes and the launcher's record."""
    t0 = time.monotonic()
    proc = subprocess.Popen([sys.executable, LAUNCH, *args], cwd=ROOT,
                            env=op_env(), stdin=subprocess.DEVNULL,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        out, err = _drain(proc, t0 + OP_DEADLINE_S)
    finally:
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    wall = time.monotonic() - t0
    record = None
    for line in reversed(err.decode(errors="replace").splitlines()):
        if line.startswith("PERFBENCH-RECORD "):
            record = json.loads(line[len("PERFBENCH-RECORD "):])
            break
    if record is None or "ready" not in record:
        tail = err.decode(errors="replace").strip().splitlines()[-5:]
        raise OpFailed(f"op {args[:4]} exited {proc.returncode} before its "
                       f"set-up ended: {' | '.join(tail)}")
    return {"wall": wall, "setup": record["ready"] - t0,
            "rss_mb": usage.ru_maxrss / 1024.0, "rc": proc.returncode,
            "out": out, "record": record}


def run_record(args):
    """Facts about the host that explain drift between runs."""
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "python": platform.python_version(), "nproc": os.cpu_count(),
            "cpu": cpu, "loadavg": list(os.getloadavg())}


# ---------------------------------------------------------------- verify


def load_reference():
    with open(os.path.join(HERE, "reference.json")) as fh:
        return json.load(fh)


def artifact_commands(ell, wmax):
    return {"gram": ["gram", "--ell", str(ell), "--wmax", str(wmax)],
            "reduce": ["reduce", "--ell", str(ell)]}


def artifact_digests(ell, wmax):
    """sha256 of the exact JSON artifacts, each from a fresh process."""
    digests = {}
    for name, argv in artifact_commands(ell, wmax).items():
        op = spawn(["cli", "0", *argv])
        if op["rc"] != 0:
            raise OpFailed(f"sphmop {' '.join(argv)} exited {op['rc']}")
        digests[name] = hashlib.sha256(op["out"]).hexdigest()
    return digests


def parse_verify_output(out: bytes):
    """(status, label) for each row that `sphmop verify` printed."""
    rows = []
    for line in out.decode().splitlines():
        status, sep, label = line.partition("  ")
        if sep and status in ("PASS", "FAIL"):
            rows.append((status, label))
    return rows


def verify_op_ok(op, labels):
    rows = parse_verify_output(op["out"])
    return (op["rc"] == 0 and bool(rows)
            and all(status == "PASS" for status, _ in rows)
            and set(labels) <= {label for _, label in rows})


def run_verify(spec, args, reference):
    ell, wmax = spec["ell"], spec["wmax"]
    ref = reference[args.workload]
    digests_ok = artifact_digests(ell, wmax) == ref["digests"]
    argv = ["verify", "--ell", str(ell), "--wmax", str(wmax)]
    plain, traced = [], []
    t_begin = time.monotonic()
    # traced runs alternate untraced and traced ops, so the overhead ratio
    # compares ops that met the same host conditions
    while (time.monotonic() - t_begin < args.seconds
           or (args.trace and len(traced) < 1)):
        use_trace = args.trace and len(plain) > len(traced)
        op = spawn(["cli", "1" if use_trace else "0", *argv])
        op["ok"] = digests_ok and verify_op_ok(op, ref["labels"])
        (traced if use_trace else plain).append(op)
    for op in traced:
        if op["out"] != plain[0]["out"]:
            op["ok"] = False
    ops = plain + traced
    failed = sum(not op["ok"] for op in ops)
    notes = {"artifact_digests_match": digests_ok}
    if args.trace:
        layers = layer_metrics(
            [op["record"]["spans"] for op in traced],
            statistics.median(op["wall"] for op in traced)
            / statistics.median(op["wall"] for op in plain))
        layers["geometry.err_max"] = 0.0
        notes["missing_spans"] = traced[0]["record"]["missing"]
        return len(ops), failed, failed == 0, layers, notes
    good = [op for op in plain if op["ok"]] or plain
    metrics = {
        "verify_s": statistics.median(op["wall"] for op in good),
        "phi_evals_per_s": (sum(op["ok"] for op in plain)
                            / sum(op["wall"] for op in plain)),
        "setup_s": statistics.median(op["setup"] for op in plain),
        "peak_rss_mb": statistics.median(op["rss_mb"] for op in plain),
        "ok_ratio": sum(op["ok"] for op in plain) / len(plain),
    }
    return len(ops), failed, failed == 0, metrics, notes


# ------------------------------------------------------------------- phi


def run_phi(args):
    import phi

    segments = []
    start = 0
    if args.trace:
        plan = [("0", f"{args.seconds / 2.0!r}"),
                ("1", f"ops:{phi.POOL_SIZE}")]
    else:
        plan = [("0", f"{args.seconds / PHI_SEGMENTS!r}")] * PHI_SEGMENTS
    untraced_ops = 0
    while plan:
        trace_flag, amount = plan.pop(0)
        op = spawn(["phi", trace_flag, str(args.seed),
                    str(0 if trace_flag == "1" else start), amount])
        if op["rc"] != 0:
            raise OpFailed(f"phi op process exited {op['rc']}")
        op["data"] = json.loads(op["out"])
        op["traced"] = trace_flag == "1"
        segments.append(op)
        if not op["traced"]:
            untraced_ops += sum(op["data"]["visits"])
            start = untraced_ops % phi.POOL_SIZE
            # every pool point is judged in every run, so `attempted` and
            # `failed` do not depend on the host's speed
            if not plan and untraced_ops < phi.POOL_SIZE:
                plan.append(("0", f"ops:{phi.POOL_SIZE - untraced_ops}"))

    # ---- oracle, outside every timed interval
    datas = [op["data"] for op in segments]
    verdict = phi.judge(args.seed, datas)
    attempted, failed = verdict["attempted"], verdict["failed"]
    correct, notes = verdict["correct"], verdict["notes"]

    if args.trace:
        plain, traced = datas
        overhead = ((sum(traced["op_s"]) / sum(traced["visits"]))
                    / (sum(plain["op_s"]) / sum(plain["visits"])))
        layers = layer_metrics([segments[1]["record"]["spans"]], overhead,
                               ops_per_summary=sum(traced["visits"]))
        layers["geometry.err_max"] = verdict["err_max"]
        notes["missing_spans"] = segments[1]["record"]["missing"]
        return attempted, failed, correct, layers, notes

    visits = [sum(v) for v in zip(*(d["visits"] for d in datas))]
    ok_ops = sum(n for idx, n in enumerate(visits)
                 if idx not in verdict["bad"])
    op_s = [sum(t) for t in zip(*(d["op_s"] for d in datas))]
    # per-point mean op time, so one slow call moves one point only
    point_s = [(idx in verdict["bad"], op_s[idx] / n)
               for idx, n in enumerate(visits) if n]
    good_s = [t for is_bad, t in point_s if not is_bad] or \
        [t for _, t in point_s]
    metrics = {
        "verify_s": statistics.median(good_s),
        "phi_evals_per_s": ok_ops / sum(op_s),
        "setup_s": statistics.median(op["setup"] for op in segments),
        "peak_rss_mb": statistics.median(op["rss_mb"] for op in segments),
        "ok_ratio": (attempted - failed) / attempted,
    }
    return attempted, failed, correct, metrics, notes


# ---------------------------------------------------------------- output


def layer_metrics(summaries, overhead_ratio, ops_per_summary=1):
    """Per-op span figures: the median over span summaries, each of which
    covers `ops_per_summary` ops."""
    from spans import TARGETS, EXTRA
    out = {}
    for name in TARGETS:
        for suffix in ("self_s", "calls"):
            key = f"{name}.{suffix}"
            out[key] = statistics.median(s[key] for s in summaries) \
                / ops_per_summary
    for key in EXTRA:
        out[key] = max(s[key] for s in summaries)
    out["trace.overhead_ratio"] = overhead_ratio
    return out


def layer_units():
    from spans import TARGETS
    units = {}
    for name in TARGETS:
        units[f"{name}.self_s"] = "s"
        units[f"{name}.calls"] = "count"
    units.update({"family.height_bits": "bits",
                  "exact_linalg.max_system_entries": "count",
                  "geometry.err_max": "abs",
                  "trace.overhead_ratio": "ratio"})
    return units


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "sphmop", "cli.py")):
        print("error: run from a source checkout; src/sphmop is missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    os.environ.update({var: "1" for var in THREAD_VARS})  # before numpy loads
    spec = WORKLOADS[args.workload]
    record = run_record(args)
    try:
        if spec["kind"] == "verify":
            attempted, failed, correct, metrics, notes = run_verify(
                spec, args, load_reference())
        else:
            attempted, failed, correct, metrics, notes = run_phi(args)
    except OpFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    units = layer_units() if args.trace else END_TO_END
    record["notes"] = notes
    print(json.dumps({"record": record}))
    for name, value in metrics.items():
        print(f"{name:48s} {value:14.6g} {units[name]}")
    print(json.dumps({
        "correct": bool(correct), "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
