"""Benchmark for qrr: one client in a closed loop, in one process.

    python3 perfbench/run.py --workload pipeline --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --smoke

Each op is sent when the previous one has finished and is checked against
an oracle that does not import qrr (``oracles.py``).  The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.

With ``--trace 0`` the metrics are the end-to-end ones, from an untraced
timed loop of whole blocks of ops (workloads.py) that stops at the end of
the first block reaching both ``--seconds`` of busy time and ``MIN_OPS``
ops.  Times are scaled to the speed of a fixed reference work
(reference.py), because the shared host's speed drifts by 20% and more:
each op's wall time is multiplied by the reference's nominal time over
the mean of its times just before and just after the op, and each set-up
time by the nominal time over the reference's time in the same fresh
process.  The unscaled figures are printed in the notes.

    op_p50_s     median scaled time of one passing op
    op_tail_s    80th percentile of the scaled times of passing ops
    ops_per_s    passing ops per scaled second of busy time
    peak_mem_mb  largest tracemalloc peak of qrr's work in one op, over an
                 untimed pass of one op per kind (workloads.py sizes it)
    setup_s      median scaled time over fresh processes (setup_probe.py),
                 started between the timed blocks, of importing qrr and
                 running the workload's fixed warm-up ops
    ok_ratio     passing ops / ops attempted (1 - fail_ratio)

With ``--trace 1`` the metrics are per layer: each block of ops runs
untraced and then with every public function of the qrr modules wrapped
(tracer.py), until ``--seconds`` of busy time.  Self times are per traced
op; counts are exact totals over the first block, which is then traced a
second time and must give identical counts.  Spans are written to perfbench/out/.

Metric names and units come from BENCHMARK.json.  ``--smoke`` runs
every workload at tiny sizes in both modes.
"""

import argparse
import gc
import json
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import reference
from tracer import Tracer
from workloads import WORKLOADS, Checker, Op, call

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_RUNS = 21
# op_tail_s, the 80th percentile, then has at least ten ops beyond it
MIN_OPS = 50

SELF_TIMED = (
    "fps.div_one_minus_qpow",
    "fps.mul_one_minus_qpow",
    "fps.pow_one_minus_qpow",
    "fps.QSeries.is_one",
    "fps.mul",
    "fps.invert",
    "fps.linear_combine",
    "fps.shift",
    "zpoly.subst_zq",
    "zpoly.zadd",
    "zpoly.zshift",
    "zpoly.eval_z_at_qpow",
    "sumside.rr_sum",
    "cfrac.rr_numerators",
    "cfrac.rr_convergent",
    "cfrac.cfrac_series",
    "cfrac.rr_convergent_series",
    "prodmake.expand_product",
    "prodmake.strip_step",
    "prodmake.conjecture_product",
    "prodmake.detect_progressions",
    "dirichlet.euler_strip",
    "cli.render",
    "cli.first_mismatch",
)
CALL_COUNTED = (
    "fps.div_one_minus_qpow",
    "fps.pow_one_minus_qpow",
    "fps.mul",
    "fps.invert",
    "fps.linear_combine",
    "cfrac.rr_numerators",
    "cfrac.rr_convergent",
    "cfrac.cfrac_series",
    "cfrac.rr_convergent_series",
    "prodmake.strip_step",
    "dirichlet.euler_strip",
)
# metric name -> unit, for each section of BENCHMARK.json that run.py reports
UNITS = {
    section: {m["name"]: m["unit"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())[section]}
    for section in ("end_to_end", "per_layer")
}


@dataclass
class Record:
    op: Op
    seconds: float  # wall time
    error: str | None
    scaled: float = 0.0  # wall time at the reference's speed, in the timed loop only


def gauge():
    """Seconds the reference work takes now, after collecting garbage."""
    gc.collect()
    return reference.measure()


def import_qrr():
    """Import qrr and its CLI from this checkout's src/, never from anywhere else."""
    if not (SRC / "qrr" / "__init__.py").is_file():
        raise SystemExit("perfbench: no qrr sources at %s" % (SRC / "qrr"))
    sys.path.insert(0, str(SRC))
    import qrr
    import qrr.cli

    if Path(qrr.__file__).resolve().parent != SRC / "qrr":
        raise SystemExit("perfbench: imported qrr from %s, not %s" % (qrr.__file__, SRC))
    return qrr


def setup_times(workload, runs):
    """Seconds each of ``runs`` fresh processes takes to import qrr and run
    the warm-up ops, unscaled and scaled by the reference timed in each."""
    times, scaled = [], []
    for _ in range(runs):
        done = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload],
            cwd=ROOT, capture_output=True, text=True, timeout=150,
        )
        if done.returncode != 0:
            raise RuntimeError("setup_probe.py exited %d: %s" % (done.returncode, done.stderr.strip()[-300:]))
        probe = json.loads(done.stdout.strip().splitlines()[-1])
        times.append(probe["setup_s"])
        scaled.append(probe["setup_s"] * reference.NOMINAL_S / probe["reference_s"])
    return times, scaled


def run_ops(qrr, ops, checker, tracer=None, scaled=False):
    """Closed loop: each op is sent when the previous one has been checked.

    With ``scaled`` the reference is timed before the first op and after
    each op, and each record gets its wall time at the reference's speed.
    """
    records = []
    before = gauge() if scaled else 0.0
    for op in ops:
        gc.collect()
        if tracer:
            tracer.begin_op()
        dt, outcome = call(qrr, op)
        records.append(Record(op, dt, checker.check(op, outcome)))
        if scaled:
            after = gauge()
            records[-1].scaled = dt * 2 * reference.NOMINAL_S / (before + after)
            before = after
    return records


def p80(times):
    """The 80th percentile; a fixed level, so that it does not jump when a
    run holds one block of ops more or less."""
    return statistics.quantiles(times, n=5)[-1] if len(times) > 1 else times[0]


def throughput(records, key=lambda r: r.seconds):
    return sum(r.error is None for r in records) / sum(map(key, records))


def end_to_end(qrr, name, seed, seconds, tiny, notes):
    """The timed loop, the memory pass and the set-up runs; returns (records, values)."""
    wl = WORKLOADS[name]
    runs = SETUP_RUNS if not tiny else 2
    blocks, checker, records, setups, scaled_setups = wl.blocks(seed, tiny), Checker(), [], [], []
    while sum(r.seconds for r in records) < seconds or len(records) < MIN_OPS:  # whole blocks of ops
        records += run_ops(qrr, next(blocks), checker, scaled=True)
        # The set-up runs are spread over the timed loop, so that their
        # median sees the machine's phases as the ops do.
        done = min(1.0, sum(r.seconds for r in records) / seconds)
        plain, scaled = setup_times(name, round(runs * done) - len(setups))
        setups += plain
        scaled_setups += scaled

    peaks, probed = [], []
    for op in wl.memory_ops(seed, tiny):
        gc.collect()
        _, outcome = call(qrr, op, memory=True)
        peaks.append(outcome.peak / 1e6)
        probed.append(Record(op, 0.0, checker.check(op, outcome)))
        notes.append("tracemalloc peak %.3f MB for %s" % (peaks[-1], op.label()))

    times = sorted(r.scaled for r in records if r.error is None) or [0.0]
    wall = sorted(r.seconds for r in records if r.error is None) or [0.0]
    n = len(times)
    notes.append(
        "%d timed ops, %.2f s busy; op_p50_s and op_tail_s (p80, %d ops beyond it) over %d passing ops"
        % (len(records), sum(r.seconds for r in records), sum(t > p80(times) for t in times), n)
    )
    notes.append("setup_s median of %d processes: %s" % (len(setups), " ".join("%.4f" % s for s in scaled_setups)))
    notes.append(
        "unscaled: op_p50_s %.4f, op_tail_s %.4f, ops_per_s %.4f, setup_s %.4f"
        % (statistics.median(wall), p80(wall), throughput(records), statistics.median(setups))
    )
    return records + probed, {
        "op_p50_s": statistics.median(times),
        "op_tail_s": p80(times),
        "ops_per_s": throughput(records, key=lambda r: r.scaled),
        "peak_mem_mb": max(peaks),
        "setup_s": statistics.median(scaled_setups),
    }


def per_layer(qrr, name, seed, seconds, tiny, notes):
    """Each block untraced then traced, and a second traced pass of the first block.

    Running every block both ways, one after the other, keeps warm-up and
    drift of the machine out of ``trace_overhead``.  Returns (records, values).
    """
    checker = Checker()
    blocks = WORKLOADS[name].blocks(seed, tiny)
    first = next(blocks)
    block = first
    plain, traced = [], []
    tracer = Tracer(qrr)
    while True:
        plain += run_ops(qrr, block, checker)
        tracer.install()
        try:
            traced += run_ops(qrr, block, checker, tracer)
        finally:
            tracer.uninstall()
        if sum(r.seconds for r in plain + traced) >= seconds:
            break
        block = next(blocks)
    again = Tracer(qrr)
    again.install()
    try:
        repeat = run_ops(qrr, first, checker, again)
    finally:
        again.uninstall()

    counts = tracer.totals(len(first))
    records = plain + traced + repeat
    if counts != again.totals(len(first)):
        diff = sorted(set(counts.items()) ^ set(again.totals(len(first)).items()))
        records.append(Record(first[0], 0.0, "layer counts differ between two traced passes: %s" % diff[:4]))
    OUT.mkdir(exist_ok=True)
    spans = OUT / ("spans-%s-seed%d.tsv" % (name, seed))
    tracer.write_spans(spans)
    notes.append(
        "%d ops run untraced and traced; counts over the first block of %d ops; %d spans in %s"
        % (len(traced), len(first), len(tracer.spans), spans.relative_to(ROOT))
    )

    values = {n + ".self_s": tracer.self_s.get(n, 0.0) / len(traced) for n in SELF_TIMED}
    values.update({n + ".calls": counts[n, "calls"] for n in CALL_COUNTED})
    detects = counts["prodmake.detect_progressions", "calls"]
    values.update({
        "fps.mul.madds": counts["fps.mul", "madds"],
        "fps.mul.max_bits": counts["fps.mul", "max_bits"],
        "fps.pow_one_minus_qpow.binomial_calls": counts["fps.pow_one_minus_qpow", "binomial_calls"],
        "prodmake.detect_progressions.found_ratio":
            counts["prodmake.detect_progressions", "found"] / detects if detects else 0.0,
        "prodmake.strip.max_mult_bits": counts["prodmake.strip_step", "max_mult_bits"],
        "trace_overhead": throughput(traced) / throughput(plain),
    })
    return records, values


def run(qrr, warm, name, seed, seconds, trace, tiny=False):
    """One benchmark run; prints its notes and failures, returns the result object."""
    notes = []
    if trace:
        records, values = per_layer(qrr, name, seed, seconds, tiny, notes)
    else:
        records, values = end_to_end(qrr, name, seed, seconds, tiny, notes)
    records = warm + records
    failed = [r for r in records if r.error is not None]
    if not trace:
        values["ok_ratio"] = 1 - len(failed) / len(records)
    for note in notes:
        print("%s seed %d: %s" % (name, seed, note))
    for r in failed:
        print("FAIL %s: %s" % (r.op.label(), r.error))
    units = UNITS["per_layer" if trace else "end_to_end"]
    return {
        "correct": not failed,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {k: {"value": values[k], "unit": unit} for k, unit in units.items()},
    }


def warm_up(name):
    """Import qrr and run the workload's warm-up ops, checked; returns (qrr, records)."""
    qrr = import_qrr()
    return qrr, run_ops(qrr, WORKLOADS[name].warmup, Checker())


def smoke():
    """All workloads at tiny sizes, both modes; exit status 0 only if all pass."""
    ok = True
    for name in WORKLOADS:
        qrr, warm = warm_up(name)
        for trace in (0, 1):
            result = run(qrr, warm, name, 1, 0.3, trace, tiny=True)
            print(json.dumps(result))
            ok = ok and result["correct"]
    print("smoke:", "ok" if ok else "FAILED")
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=tuple(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny run of every workload")
    args = parser.parse_args()
    if args.smoke:
        return smoke()
    if not args.workload:
        parser.error("--workload is required")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    qrr, warm = warm_up(args.workload)
    result = run(qrr, warm, args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
