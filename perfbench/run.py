#!/usr/bin/env python3
"""Benchmark of tamezeta: seeded workloads, end-to-end metrics, checked outputs.

Run from the root of a source checkout (the program is imported from
``src/``):

    python3 perfbench/run.py --workload hasse-scan --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py                      # every workload, one after another

One run: draw the workload's inputs from the seed; set up (import
tamezeta, then the untimed warm-up operations) in this process and run
the first third of the operations of a fixed number of seeded rounds
(see :func:`workloads.round_count`); twice more, time a set-up in a fresh
child process and run the next third; then check every output against
:mod:`reference`.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``, the
end-to-end metrics with ``--trace 0`` and the per-layer ones with
``--trace 1``.  A fuller record goes to ``perfbench/results/``.
"""
from __future__ import annotations

import argparse
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(HERE, "results")
sys.path.insert(0, HERE)

import workloads as wl  # noqa: E402  (stdlib and reference only; no mpmath yet)

SETUP_REPS = 3
CHILD_TIMEOUT_S = 150


class SetupError(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# the program
# ---------------------------------------------------------------------------


def import_program():
    """Import tamezeta from this checkout's ``src``, nowhere else."""
    package = os.path.join(SRC, "tamezeta")
    if not os.path.isfile(os.path.join(package, "__init__.py")):
        raise SetupError("no tamezeta sources under %s" % SRC)
    sys.path.insert(0, SRC)
    import tamezeta

    if os.path.realpath(os.path.dirname(tamezeta.__file__)) != os.path.realpath(package):
        raise SetupError("imported tamezeta from %s, not from this checkout" % tamezeta.__file__)
    return tamezeta


def descriptor(tz, sp):
    kind, p = sp[0], dict(sp[1])
    if kind in ("hurwitz", "eta", "central-binomial", "zeta-even"):
        return tz.catalog_descriptor(kind)
    if kind == "character":
        return tz.CharacterDescriptor(p["modulus"], p["values"], p["power"])
    if kind == "lerch":
        return tz.LerchDescriptor(p["w"])
    if kind == "barnes":
        return tz.BarnesDescriptor(p["a"])
    if kind == "ehrhart":
        return tz.EhrhartDescriptor(p["g"], p["p"], p["d"])
    if kind == "rational":
        return tz.RationalDescriptor(p["num"], p["den"])
    raise ValueError("unknown spec %r" % (sp,))


class Program:
    """The imported program, the run's context and its descriptors."""

    def __init__(self, tz, members):
        self.tz = tz
        self.ctx = tz.ApproxContext(precision_bits=wl.PRECISION_BITS, target_eps=wl.EPS)
        self.desc = {sp: descriptor(tz, sp) for _label, sp, _t0 in members}

    def execute(self, op):
        tz, ctx, desc = self.tz, self.ctx, self.desc[op.spec]
        if op.kind == "continue":
            return tz.continue_dirichlet(desc, op.s, op.t, ctx)
        if op.kind == "direct":
            return tz.direct_sum(desc, op.s, op.t, ctx)
        if op.kind == "oracle":
            return tz.oracle_eval(desc, op.s, op.t, ctx)
        if op.kind == "incgamma":
            return tz.incgamma_eval(desc, op.s, op.t, ctx)
        if op.kind == "exact":
            return self._exact(desc, op.t)
        raise ValueError(op.kind)

    def _exact(self, desc, t0):
        tz, K = self.tz, wl.EXACT_K
        report = tz.analyze(desc, t0, K)
        nu = report.nu
        mpx = tz.build_multipower(desc, order=nu + K)
        values = [tz.hasse_eval(mpx, -(nu + n), t0, self.ctx).exact_value for n in range(K + 1)]
        data = tz.ContinuationData(
            t0, report.pole_set, tuple(report.residues[n] for n in report.pole_set), report.special_values
        )
        try:
            recon = tz.dirichlet_from_data(data)[0]
        except ValueError as exc:
            recon = exc
        return report, values, recon

    def run(self, op):
        """(output, exception, seconds) of one operation."""
        start = time.perf_counter()
        try:
            out, err = self.execute(op), None
        except Exception as exc:  # a failed operation is counted, not fatal
            out, err = None, exc
        return out, err, time.perf_counter() - start


def setup(work, members):
    """Import the program and run the warm-up; returns (seconds, program, records)."""
    start = time.perf_counter()
    prog = Program(import_program(), members)
    records = [(op,) + prog.run(op) for op in work.warmup(members)]
    return time.perf_counter() - start, prog, records


def setup_in_child(args):
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload, "--seed", str(args.seed), "--setup-only"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, cwd=ROOT)
    if proc.returncode != 0:
        raise SetupError("set-up process failed: %s" % proc.stderr.strip()[-500:])
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def blocks(ops, count):
    """``ops`` cut into ``count`` consecutive blocks, the longer first."""
    out, start = [], 0
    for i in range(count):
        size = len(ops) // count + (i < len(ops) % count)
        out.append(ops[start : start + size])
        start += size
    return out


def measure(prog, ops):
    """Run the given operations; returns their records."""
    return [(op,) + prog.run(op) for op in ops]


def ops_per_s(timed):
    """Timed operations divided by their summed wall time."""
    return len(timed) / sum(dt for *_, dt in timed)


# ---------------------------------------------------------------------------
# checks and summaries
# ---------------------------------------------------------------------------


def check_all(prog, warm, timed):
    """Check every output; returns (correct, failed, faults, wrong)."""
    laurent = {}
    failed = 0
    faults = {}
    wrong = []
    for i, (op, out, err, _dt) in enumerate(warm + timed):
        if op.kind == "exact" and err is None:
            if op.spec not in laurent:
                laurent[op.spec] = prog.tz.laurent_at_one(prog.desc[op.spec], wl.EXACT_K + 2)
            out = out + (laurent[op.spec],)
        result = wl.check(op, out, err)
        if result.wrong:
            wrong.append(result.wrong)
        if i >= len(warm) and (err is not None or result.fault):
            failed += 1
            if result.fault:
                faults[result.fault] = faults.get(result.fault, 0) + 1
    return not wrong, failed, faults, wrong


def tail_percentile(n):
    """Highest of p90/p95/p99 with at least ten samples beyond it, or None."""
    best = None
    for p in (90, 95, 99):
        if n * (100 - p) / 100 >= 10:
            best = p
    return best if n >= 40 else None


def composition(timed):
    """Measured make-up of the timed inputs."""
    ops = [op for op, *_ in timed]
    out = {"ops_by_tag": {}, "seconds_by_tag": {}}
    for op, _out, _err, dt in timed:
        out["ops_by_tag"][op.tag] = out["ops_by_tag"].get(op.tag, 0) + 1
        out["seconds_by_tag"][op.tag] = out["seconds_by_tag"].get(op.tag, 0) + dt
    points = [op for op in ops if op.s is not None]
    if points:
        near = sum(1 for op in points if any(abs(op.s - n) < 1 for n in range(1, wl.ref.pole_order(op.spec) + 1)))
        out["near_pole_share"] = near / len(points)
        out["im_above_16_share"] = sum(1 for op in points if abs(op.s.imag) > 16) / len(points)
    chars = [op for op in ops if op.spec[0] == "character"]
    if chars:
        even = [op for op in chars if dict(op.spec[1])["values"][-2] == 1]  # chi(k-1) = chi(-1)
        out["even_character_share"] = len(even) / len(chars)
    return out


def write_record(args, record):
    os.makedirs(RESULTS, exist_ok=True)
    name = "%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace)
    with open(os.path.join(RESULTS, name), "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True, default=str)


# ---------------------------------------------------------------------------
# one workload
# ---------------------------------------------------------------------------


def run_workload(args):
    work = wl.WORKLOADS[args.workload]
    rng = random.Random("%s:%d" % (work.name, args.seed))
    members = work.members(rng)
    if args.setup_only:
        seconds, _prog, _warm = setup(work, members)
        print(json.dumps({"setup_s": seconds}))
        return 0
    planned = work.rounds(rng, members, wl.round_count(work, args.seconds))
    ops = [op for r in planned for op in r]
    record = {"workload": work.name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace}
    if args.trace:
        prog = Program(import_program(), members)
        from tracing import Tracer

        tracer = Tracer().install()
        try:
            warm = [(op,) + prog.run(op) for op in work.warmup(members)]
            warm_self_s = dict(tracer.self_s)
            tracer.reset()
            timed = measure(prog, ops)
        finally:
            tracer.uninstall()
        metrics = tracer.metrics(len(timed))
        for name, seconds in warm_self_s.items():
            metrics["warmup.%s.self_s" % name] = (seconds, "s")
        record["traced_ops_per_s"] = ops_per_s(timed)
    else:
        # the measuring process sets up first; the other set-ups run in child
        # processes between blocks of operations, so that the timed
        # operations sample the machine over the whole run rather than over
        # one stretch of it
        seconds, prog, warm = setup(work, members)
        samples = [seconds]
        timed = []
        for rep, block in enumerate(blocks(ops, SETUP_REPS)):
            if rep:
                samples.append(setup_in_child(args))
            timed += measure(prog, block)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        times = [dt for *_, dt in timed]
        metrics = {
            "ops_per_s": (ops_per_s(timed), "1/s"),
            "op_p50_ms": (statistics.median(times) * 1000, "ms"),
            "setup_s": (statistics.median(samples), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
        record["setup_samples_s"] = samples
        tail = tail_percentile(len(times))
        if tail:
            record["op_p%d_ms" % tail] = statistics.quantiles(times, n=100)[tail - 1] * 1000
    per_round = len(planned[0])  # every round has the same make-up
    start = time.perf_counter()
    correct, failed, faults, wrong = check_all(prog, warm, timed)
    result = {
        "correct": correct,
        "attempted": len(timed),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record.update(
        result,
        check_s=time.perf_counter() - start,
        rounds=len(planned),
        round_seconds=[sum(dt for *_, dt in timed[i : i + per_round]) for i in range(0, len(timed), per_round)],
        faults=faults,
        wrong=wrong[:20],
        composition=composition(timed),
        op_seconds=[(op.label, op.tag, dt) for op, _out, _err, dt in timed],
    )
    write_record(args, record)
    for line in wrong[:20]:
        print("WRONG: " + line, file=sys.stderr)
    print(json.dumps(result))
    return 0


# ---------------------------------------------------------------------------
# every workload
# ---------------------------------------------------------------------------


def run_every(args):
    """Each workload in its own process, one after another."""
    results = {}
    for name in wl.WORKLOADS:
        cmd = [
            sys.executable, os.path.abspath(__file__), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
        if proc.returncode != 0:
            print("%s: failed\n%s" % (name, proc.stderr.strip()[-2000:]), file=sys.stderr)
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        results[name] = result
        print("%-13s attempted %5d  failed %4d  correct %s" % (name, result["attempted"], result["failed"], result["correct"]))
        for metric, v in result["metrics"].items():
            print("    %-44s %14.6g %s" % (metric, v["value"], v["unit"]))
    print(json.dumps(results))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(wl.WORKLOADS), help="one workload (default: every one)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        return run_workload(args) if args.workload else run_every(args)
    except SetupError as exc:
        print("perfbench: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
