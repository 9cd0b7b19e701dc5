"""fockport benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload {figures,teleport-allq,scan} \
        --seed N --seconds S --trace {0,1}

Run from a source checkout; the program is imported from its src/ directory,
so nothing is built or installed.  Each pass starts a fresh interpreter
(worker.py), as a CLI user starts one process per run, and runs operations
back to back from that one process: a closed loop with one client.  The only
extra threads are the pool threads that fockport.sweep.run_sweep starts.

--trace 0 measures the end-to-end metrics.  Passes run until their operations
have used S seconds of wall time; every output is checked after its pass
ends.  Operation times are reported in reference time (see CAL_REF_S).
--trace 1 gives the per-layer metrics.  It runs a fixed number of operations
per seed (sized so the run lasts about S seconds at the time of writing),
each pass once untraced and once traced, and requires the two passes to write
identical outputs.  trace.overhead_ratio compares the two.

The second-to-last line of stdout is a JSON report (provenance, sample counts,
failures, self-tests, layer shares); the last line is the result object.
Exit code 2 without a result when the checkout has no fockport sources.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracer
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

PASS_TIMEOUT_S = 150       # one pass may not outlive the 180 s limit of a run
START_DEADLINE_S = 100     # no new pass after this much wall time
MIN_P90_TAIL = 10          # samples that must lie beyond p90
MIN_SAMPLES = 10 * MIN_P90_TAIL
# operations per second at the time of writing; sizes the fixed traced runs
TRACE_RATE = {"teleport-allq": 5.0, "scan": 10.0}
TRACE_STREAM_PASSES = 12
TRACE_FIGURE_PASS_S = 3.0

END_TO_END_UNITS = {"ops_per_ref_s": "1/ref_s", "op_p50_ref_ms": "ref_ms",
                    "op_p90_ref_ms": "ref_ms", "ok_ratio": "ratio", "setup_s": "s",
                    "peak_rss_mb": "MB"}
# The host's speed drifts by up to 2x within minutes, and most of all on
# fockport's hot path of tiny numpy calls: on the reference 2-vCPU host the
# same teleport job took 290-590 ms within a minute while worker.calibrate()
# moved with it (CV of a job's time 0.20, of its time divided by the loop's
# 0.08).  Operation times are therefore reported in reference time: wall time
# x CAL_REF_S / (median time of calibrate() around the operation), i.e. what
# the operation would take with the loop at its reference time.  Wall-clock
# figures are in the report line.
CAL_REF_S = 3.0e-3
# An interpreter's speed depends on where its stack starts within a page: on
# the reference 2-vCPU host, teleport-allq jobs take ~80 ms at most sub-page
# offsets and ~135 ms in a band about a quarter of the page wide, so a run of
# fresh interpreters with randomised layouts is as noisy as its count of
# unlucky draws.  Workers therefore run with address-space randomisation off
# and pass k pads its environment so that its stack starts layout_pad(k)
# bytes lower: every run covers the sub-page offsets evenly, as randomised
# layouts do on average.  Where the kernel refuses, layouts stay random.
_ADDR_NO_RANDOMIZE = 0x0040000


def _fixed_layout() -> None:
    """Runs in the forked child before exec: turn off layout randomisation."""
    libc = ctypes.CDLL(None, use_errno=True)
    current = libc.personality(0xFFFFFFFF)
    if current != -1:
        libc.personality(current | _ADDR_NO_RANDOMIZE)


def layout_pad(k: int) -> int:
    """Bit-reversed multiples of 16 bytes: any run of passes spreads over the page."""
    return 16 * int(f"{k % 256:08b}"[::-1], 2)


PREDICTIONS = {
    "teleport-allq": [("teleport", ">", 0.90), ("su2", "<", 0.05)],
    "scan": [("su2", ">=", 0.50)],
}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def provenance(seed: int) -> dict:
    import numpy
    head = ROOT / ".git" / "HEAD"
    sha = None
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            sha = ref_file.read_text().strip() if ref_file.is_file() else None
        else:
            sha = ref
    src = hashlib.sha256()
    for path in sorted((SRC / "fockport").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"git_sha": sha, "source_sha256": src.hexdigest(),
            "nproc": len(os.sched_getaffinity(0)), "os_cpu_count": os.cpu_count(),
            "FOCKPORT_THREADS": None, "python": platform.python_version(),
            "numpy": numpy.__version__, "seed": seed}


class Runner:
    def __init__(self, workload: str, work: Path):
        self.workload = workload
        self.work = work
        self.env = dict(os.environ, PYTHONPATH=str(SRC), TMPDIR=str(work))
        # the pool size must come from the CPU count, as for a default user
        self.env.pop("FOCKPORT_THREADS", None)
        self.count = 0

    def run_pass(self, ops: list[dict], budget_s, trace: bool, layout: int) -> tuple[dict, Path]:
        """Run ops in a fresh worker; returns its result and the directory of its outputs."""
        self.count += 1
        out_dir = self.work / f"out{self.count}"
        out_dir.mkdir()
        job = self.work / f"job{self.count}.json"
        result = self.work / f"result{self.count}.json"
        job.write_text(json.dumps({"ops": ops, "budget_s": budget_s, "trace": trace,
                                   "block": workloads.BLOCK_SIZE[self.workload],
                                   "out_dir": str(out_dir)}))
        env = dict(self.env, PERFBENCH_STACK_PAD="x" * layout_pad(layout))
        proc = subprocess.run([sys.executable, str(BENCH / "worker.py"), str(job), str(result)],
                              env=env, cwd=str(ROOT), capture_output=True, text=True,
                              timeout=PASS_TIMEOUT_S, preexec_fn=_fixed_layout)
        if proc.returncode != 0:
            raise RuntimeError(f"worker exited with {proc.returncode}: {proc.stderr[-2000:]}")
        return json.loads(result.read_text()), out_dir


def output_of(op: dict, record: dict, out_dir: Path, i: int):
    if op["op"] == "find_beta":
        return record["value"]
    if op["op"] == "column":
        return str(out_dir / f"op{i}.out.npy")
    return str(out_dir / f"op{i}.out")


def same_output(op: dict, a, b) -> bool:
    if op["op"] == "find_beta":
        return a == b
    return Path(a).read_bytes() == Path(b).read_bytes()


def check_pass(ops, records, out_dir, failures: list) -> int:
    """Check every completed operation; returns the number that failed."""
    import checks
    failed = 0
    for i, (op, rec) in enumerate(zip(ops, records)):
        problem = None if rec["status"] == "ok" else rec["status"]
        if problem is None:
            try:
                checks.check(op, output_of(op, rec, out_dir, i))
            except checks.CheckError as exc:
                problem = f"check: {exc}"
        if problem is not None:
            failed += 1
            failures.append({"op": op, "problem": problem})
    return failed


def checker_self_test(ops, records, out_dir) -> dict:
    """Corrupt the first good output of each operation type; the check must reject it."""
    import checks
    caught, tried = {}, set()
    for i, (op, rec) in enumerate(zip(ops, records)):
        if rec["status"] != "ok" or op["op"] in tried:
            continue
        tried.add(op["op"])
        bad = checks.corrupt(op, output_of(op, rec, out_dir, i), str(out_dir / f"corrupt{i}"))
        try:
            checks.check(op, bad)
            caught[op["op"]] = False
        except checks.CheckError:
            caught[op["op"]] = True
    return {"caught": caught, "ok": bool(caught) and all(caught.values())}


def layer_metrics(spans_by_pass: list, untraced_s: float, traced_s: float, ops: int) -> tuple:
    spans = []
    for p, pass_spans in enumerate(spans_by_pass):
        spans.extend([(p, s[0]), (p, s[1]), *s[2:]] for s in pass_spans)
    agg = tracer.aggregate(spans)
    funcs = agg["functions"]
    metrics = {}

    def put(name, value, unit, samples):
        metrics[name] = {"value": float(value), "unit": unit, "samples": int(samples)}

    def fn(name):
        return funcs.get(name, {"calls": 0, "self_s": 0.0, "wall_s": 0.0, "extra": 0,
                                "child_s": 0.0, "child_calls": {}})

    for name in ("su2.wigner_d_column", "su2.rotate_about_x", "states.coherent_coefficients",
                 "quasi_epr.filtered_input", "quasi_epr.make_resource", "quasi_epr.quality",
                 "quasi_epr.phase_distribution", "teleport.evaluate_outcome", "teleport.fidelity",
                 "teleport.outcome_probability", "teleport.fidelity_bound",
                 "teleport.average_fidelity", "sweep.run_sweep", "sweep.resource_for_kind",
                 "sweep.figure_dataset", "sweep.find_beta_q_numeric"):
        f = fn(name)
        put(f"{name}.calls", f["calls"], "count", 1)
        put(f"{name}.self_s", f["self_s"], "s", f["calls"])
    col, rot = fn("su2.wigner_d_column"), fn("su2.rotate_about_x")
    put("su2.wigner_d_column.entries", col["extra"], "count", col["calls"])
    put("su2.wigner_d_column.ns_per_entry",
        1e9 * col["self_s"] / col["extra"] if col["extra"] else 0.0, "ns", col["calls"])
    put("su2.rotate_about_x.columns_per_call",
        rot["child_calls"].get("su2.wigner_d_column", 0) / rot["calls"] if rot["calls"] else 0.0,
        "count", rot["calls"])
    ev, prob = fn("teleport.evaluate_outcome"), fn("teleport.outcome_probability")
    put("teleport.reachable_ratio", ev["extra"] / ev["calls"] if ev["calls"] else 0.0,
        "ratio", ev["calls"])
    put("teleport.prob_evals_per_outcome", prob["calls"] / ev["calls"] if ev["calls"] else 0.0,
        "ratio", ev["calls"])
    sw = fn("sweep.run_sweep")
    put("sweep.run_sweep.grid_points", sw["extra"], "count", sw["calls"])
    put("sweep.run_sweep.parallelism", sw["child_s"] / sw["wall_s"] if sw["wall_s"] else 0.0,
        "ratio", sw["calls"])
    main = fn("cli.main")
    put("cli.main.self_s", main["self_s"], "s", main["calls"])
    for name in ("cli.write_csv", "cli.write_json"):
        f = fn(name)
        put(f"{name}.self_s", f["self_s"], "s", f["calls"])
        put(f"{name}.bytes", f["extra"], "bytes", f["calls"])
    for layer in tracer.LAYERS:
        put(f"{layer}.errors", agg["errors"][layer], "count", 1)
        put(f"{layer}.self_s", agg["layer_self_s"][layer], "s", 1)
    put("trace.overhead_ratio", traced_s / untraced_s - 1.0, "ratio", ops)
    put("trace.ops", ops, "count", 1)
    busy = sum(agg["layer_self_s"].values())
    shares = {layer: (t / busy if busy else 0.0) for layer, t in agg["layer_self_s"].items()}
    return metrics, shares


def reference_times(res: dict) -> list:
    """Per-operation times of a pass scaled to the reference calibration time."""
    cal = res["cal_s"]  # before the first operation and after each one
    return [r["latency_s"] * CAL_REF_S / statistics.median(cal[max(0, i - 2):i + 4])
            for i, r in enumerate(res["records"])]


def percentiles(values: list, unit: float) -> dict:
    """p50 and p90 times unit; zeros when there are too few values (the run is not correct)."""
    if len(values) < 2:
        return {50: 0.0, 90: 0.0}
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return {q: unit * cuts[q - 1] for q in (50, 90)}


def predictions(workload: str, shares: dict) -> list:
    out = []
    for layer, op, limit in PREDICTIONS.get(workload, []):
        share = shares[layer]
        held = {">": share > limit, "<": share < limit, ">=": share >= limit}[op]
        out.append({"prediction": f"{layer} share {op} {limit}", "measured": share, "held": held})
    return out


def run(args, work: Path) -> tuple[dict, dict]:
    passes = workloads.plan(args.workload, args.seed)
    report = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "provenance": provenance(args.seed),
              "plan_sha256": workloads.plan_sha256(passes),
              "generator_self_test": workloads.self_test(args.workload, args.seed)}
    runner = Runner(args.workload, work)
    figures = args.workload == "figures"
    if args.trace:
        n_pass = (max(1, round(args.seconds / TRACE_FIGURE_PASS_S)) if figures
                  else TRACE_STREAM_PASSES)
        block = workloads.BLOCK_SIZE[args.workload]
        per_pass = block * max(1, round(
            args.seconds * TRACE_RATE.get(args.workload, 0) / (2 * n_pass * block)))
        passes = [ops if figures else ops[:per_pass] for ops in passes[:n_pass]]
        budget = None
    else:
        budget = None if figures else args.seconds / workloads.STREAM_PASSES

    latencies, ref_latencies, setups, rss, failures, cal = [], [], [], [], [], []
    attempted = failed = 0
    busy = ref_busy = traced_ref_busy = 0.0
    spans_by_pass, self_test, identical = [], None, True
    fixed_layouts = 0
    started = time.monotonic()
    for k, ops in enumerate(passes):
        if not args.trace and busy >= args.seconds and len(latencies) >= MIN_SAMPLES:
            break
        if time.monotonic() - started > START_DEADLINE_S:
            break
        res, out_dir = runner.run_pass(ops, budget, False, k)
        records = res["records"]
        done = ops[:len(records)]
        setups.append(res["setup_s"])
        fixed_layouts += res["fixed_layout"]
        rss.append(res["peak_rss_kb"] / 1024.0)
        attempted += len(records)
        busy += sum(r["latency_s"] for r in records)
        ref = reference_times(res)
        ref_busy += sum(ref)
        cal += res["cal_s"]
        latencies += [r["latency_s"] for r in records if r["status"] == "ok"]
        ref_latencies += [t for t, r in zip(ref, records) if r["status"] == "ok"]
        failed += check_pass(done, records, out_dir, failures)
        if self_test is None:
            self_test = checker_self_test(done, records, out_dir)
        if args.trace:
            tres, tdir = runner.run_pass(done, None, True, k)
            traced_ref_busy += sum(reference_times(tres))
            spans_by_pass.append(tres["spans"])
            for i, (op, rec, trec) in enumerate(zip(done, records, tres["records"])):
                if rec["status"] != trec["status"] or (rec["status"] == "ok" and not same_output(
                        op, output_of(op, rec, out_dir, i), output_of(op, trec, tdir, i))):
                    identical = False
                    failures.append({"op": op, "problem": "traced output differs from untraced"})
            shutil.rmtree(tdir)
        shutil.rmtree(out_dir)

    ok = attempted - failed
    tail = len(latencies) - math.ceil(0.9 * len(latencies))
    wall = percentiles(latencies, 1e3)
    report.update({"passes": len(setups), "attempted": attempted, "failed": failed,
                   "failed_ratio": failed / attempted if attempted else 1.0,
                   "samples_beyond_p90": tail, "failures": failures[:5],
                   "checker_self_test": self_test, "timed_s": busy,
                   "wall": {"ops_per_s": ok / busy if busy else 0.0, "op_p50_ms": wall[50],
                            "op_p90_ms": wall[90], "samples": len(latencies)},
                   "calibration_median_s": statistics.median(cal), "calibration_samples": len(cal),
                   "passes_with_fixed_layout": fixed_layouts})
    correct = (failed == 0 and attempted > 0 and bool(self_test and self_test["ok"])
               and report["generator_self_test"]["ok"])
    if args.trace:
        metrics, shares = layer_metrics(spans_by_pass, ref_busy, traced_ref_busy, attempted)
        report.update({"traced_outputs_identical": identical, "layer_share": shares,
                       "predictions": predictions(args.workload, shares)})
        correct = correct and identical
    else:
        correct = correct and tail >= MIN_P90_TAIL
        ref = percentiles(ref_latencies, 1e3)
        metrics = {
            "ops_per_ref_s": (ok / ref_busy, attempted),
            "op_p50_ref_ms": (ref[50], len(ref_latencies)),
            "op_p90_ref_ms": (ref[90], len(ref_latencies)),
            "ok_ratio": (ok / attempted, attempted),
            "setup_s": (statistics.median(setups), len(setups)),
            "peak_rss_mb": (max(rss), len(rss)),
        }
        metrics = {name: {"value": value, "unit": END_TO_END_UNITS[name], "samples": n}
                   for name, (value, n) in metrics.items()}
    report["metrics"] = metrics
    result = {"correct": bool(correct), "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v["value"], "unit": v["unit"]} for k, v in metrics.items()}}
    return report, result


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "fockport" / "__init__.py").is_file():
        print(f"perfbench: no fockport sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    work = ROOT / ".bench_build" / f"perfbench-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        report, result = run(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(report, default=str))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
