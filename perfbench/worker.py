"""Run one benchmark pass in a fresh interpreter.

Usage: python worker.py PASS_JSON RESULT_JSON

PASS_JSON holds {"ops": [...], "budget_s": float | null, "block": int,
"trace": bool, "out_dir": str}.  Operations run back to back from this one
process: a closed loop with one client.  Each operation is timed on its own.
Its input files are written just before it and library results are saved
just after it, outside the timed region.  calibrate() is timed before the
first operation and after each one, also outside the timed regions, to track
the host's speed (see run.py).  With a budget the pass stops at the
first block boundary after its operations have used that much time; without
one it runs every operation.  Only the standard library is imported before
set-up is timed, so setup_s is the cost of `import fockport.cli` plus
build_parser().
"""

import json
import resource
import sys
import time


def calibrate(np) -> float:
    """Seconds taken by a fixed loop of tiny numpy calls, fockport's hot-path mix."""
    pair = np.arange(2.0)
    t = time.perf_counter()
    s = 0.0
    for i in range(600):
        x = np.asarray([s, 1.0])
        s += float(np.sum(x * pair)) * 1e-9 + i * 0.5
    return time.perf_counter() - t


def main(pass_path: str, result_path: str) -> None:
    t0 = time.perf_counter()
    import fockport.cli
    fockport.cli.build_parser()
    setup_s = time.perf_counter() - t0

    import numpy as np

    import fockport.su2
    import fockport.sweep

    import workloads

    with open(pass_path) as fh:
        job = json.load(fh)
    tracer = None
    if job["trace"]:
        import tracer as tracing
        tracer = tracing.Tracer()
        tracer.install()

    def write_inputs(op: dict, out: str) -> None:
        if op["op"] == "sweep":
            with open(f"{out}.spec", "w") as fh:
                fh.write(workloads.spec_text(op["spec"]))
        elif op["op"] == "rotate":
            with open(f"{out}.state.json", "w") as fh:
                json.dump(workloads.state_amplitudes(op), fh)

    def run(op: dict, out: str):
        # Functions are looked up at call time so that traced bindings are used.
        kind = op["op"]
        if kind == "figure":
            return fockport.cli.main(["figure", "--id", str(op["id"]), "--output", out])
        if kind == "teleport":
            argv = ["teleport", "--resource", op["resource"], "--n", str(op["n"]),
                    "--beta-deg", repr(op["beta_deg"]), "--alpha", repr(op["alpha"]),
                    "--all-q", "--format", op["format"], "--output", out]
            if op["parity"]:
                argv.append("--parity-correction")
            return fockport.cli.main(argv)
        if kind == "sweep":
            return fockport.cli.main(["sweep", "--spec-file", f"{out}.spec", "--output", out])
        if kind == "rotate":
            return fockport.cli.main(["rotate", "--n", str(op["n"]), "--input-state-file",
                                      f"{out}.state.json", "--beta-deg", repr(op["beta_deg"]),
                                      "--output", out])
        if kind == "find_beta":
            return fockport.sweep.find_beta_q_numeric(op["n"], op["kind"], op["objective"])
        if kind == "column":
            su2 = fockport.su2
            return su2.wigner_d_column(su2.SpinJ(op["twice_j"]),
                                       su2.SpinProjection(op["twice_m"]), op["beta"])
        raise ValueError(f"unknown operation {kind!r}")

    records, busy, cal_s = [], 0.0, [calibrate(np)]
    for i, op in enumerate(job["ops"]):
        if job["budget_s"] is not None and busy >= job["budget_s"] and i % job["block"] == 0:
            break
        out = f"{job['out_dir']}/op{i}.out"
        write_inputs(op, out)
        if tracer is not None:
            tracer.op = i
        status, value = "ok", None
        t = time.perf_counter()
        try:
            result = run(op, out)
        except Exception as exc:  # an operation that raises counts as failed
            result, status = None, f"raised {type(exc).__name__}: {exc}"
        latency = time.perf_counter() - t
        busy += latency
        if status == "ok":
            if op["op"] == "find_beta":
                value = result
            elif op["op"] == "column":
                np.save(f"{out}.npy", result.values)
            elif result != 0:
                status = f"exit code {result}"
        records.append({"latency_s": latency, "status": status, "value": value})
        cal_s.append(calibrate(np))

    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    with open("/proc/self/personality") as fh:
        fixed_layout = bool(int(fh.read(), 16) & 0x0040000)  # ADDR_NO_RANDOMIZE
    spans = tracer.spans if tracer is not None else None
    with open(result_path, "w") as fh:
        json.dump({"setup_s": setup_s, "peak_rss_kb": peak_rss_kb, "records": records,
                   "cal_s": cal_s, "fixed_layout": fixed_layout, "spans": spans}, fh)


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])
