"""lingeo benchmark: one workload, closed loop, one client.

    python3 perfbench/run.py --workload search-pg5 --seed 0 --seconds 55 --trace 0

Each op is one ``lingeo.cli.main(argv)`` call in a fresh process; the next
op starts when the previous one has finished, as long as it should end
within ``--seconds`` (at least one op).  Every op's output is checked
exactly.  The last stdout line is the JSON result: with ``--trace 0`` the end-to-end
metrics, with ``--trace 1`` the per-layer metrics of a traced run (see
tracerun.py).  Metric names and units come from BENCHMARK.json.

End-to-end times are given at a reference host speed: each is multiplied
by the reference time of a fixed kernel (the yardstick, yardstick.py) over
its mean time before and between the ops of the same run.  The raw times
are printed beside them.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 7


class Yardstick:
    """Times of one yardstick kernel (yardstick.py) through one run."""

    def __init__(self, kind):
        self.kind = kind
        self.samples = []

    def sample(self, *_):
        out = subprocess.run([sys.executable, str(HERE / "yardstick.py"), self.kind],
                             check=True, capture_output=True, text=True).stdout
        self.samples += json.loads(out)

    def factor(self):
        """Reference seconds per measured second in this run.

        The mean, not the median: an op's time sums its fast and slow
        stretches, and the samples are as bimodal as the host.
        """
        from yardstick import REFERENCE_S

        return REFERENCE_S[self.kind] / statistics.mean(self.samples)


def set_up(wl, seed, inp):
    """Run the set-up child SETUP_REPEATS times; median wall seconds.

    Every repeat must write byte-identical input files.
    """
    times, files = [], None
    for k in range(SETUP_REPEATS):
        target = inp if k == 0 else inp.with_name(f"{inp.name}-{k}")
        t0 = time.perf_counter()
        subprocess.run([sys.executable, str(HERE / "make_input.py"), wl.name,
                        str(seed), str(target)], check=True)
        times.append(time.perf_counter() - t0)
        got = {f.name: f.read_bytes() for f in sorted(target.iterdir())}
        if files is not None and got != files:
            raise RuntimeError("set-up is not deterministic for this seed")
        files = got
        if target != inp:
            shutil.rmtree(target)
    return statistics.median(times)


class Op:
    """One CLI command in its own process: timings, exit code, problems and
    report digest.  A fresh process per op is what a CLI user runs, and it
    keeps every op equally cold (allocator and caches)."""

    def __init__(self, wl, inp, out):
        import workloads

        self.out = out
        self.problems = []
        self.digest = None
        out.parent.mkdir(parents=True, exist_ok=True)
        with open(out.with_suffix(".log"), "wb") as log:
            t0 = time.perf_counter()
            child = subprocess.Popen(
                [sys.executable, str(HERE / "cli_op.py"), *wl.argv(inp, out)],
                stdout=log, stderr=subprocess.STDOUT)
            try:
                _, status, usage = os.wait4(child.pid, 0)
            except BaseException:
                child.kill()
                child.wait()
                raise
            self.wall = time.perf_counter() - t0
        child.returncode = self.rc = os.waitstatus_to_exitcode(status)
        self.cpu = usage.ru_utime + usage.ru_stime
        self.rss_mb = usage.ru_maxrss / 1024
        try:
            self.problems += wl.check(out, self.rc)
            self.digest = workloads.report_digest(out)
        except (OSError, ValueError, KeyError) as exc:
            self.problems.append(f"no readable report: {exc!r}")
        if self.problems:
            self.problems.append(out.with_suffix(".log").read_text()[-2000:])


def run_ops(wl, inp, work, seconds, between=None):
    """Closed loop: ops back to back while the next one, taking the median
    time of those so far, still ends within ``seconds`` (at least one op).

    Ending inside the window, rather than starting the last op anywhere in
    it, keeps a run from overshooting by up to one op.
    """
    ops, lengths = [], []
    t0 = time.perf_counter()
    while not ops or (time.perf_counter() - t0 + statistics.median(lengths)
                      <= seconds):
        start = time.perf_counter()
        ops.append(Op(wl, inp, work / f"op{len(ops)}"))
        if between is not None:
            between(ops[-1])
        lengths.append(time.perf_counter() - start)
    return ops


def judge(wl, ops, inp, seed):
    """(failed ops, median wrong verdicts, digest, evidence) after the loop."""
    digests = {op.digest for op in ops if op.digest is not None}
    if len(digests) > 1:
        for op in ops:
            op.problems.append("report bytes differ between ops of one run")
    ev = wl.evidence(inp, seed)
    wrong = [wl.wrong_verdicts(op.out, ev) for op in ops if not op.problems]
    failed = [op for op in ops if op.problems]
    for op in failed:
        print(f"op {op.out.name} failed: {'; '.join(op.problems)}", file=sys.stderr)
    return (failed, int(statistics.median(wrong)) if wrong else None,
            digests.pop() if len(digests) == 1 else None, ev)


def timed_run(wl, inp, work, seed, seconds, setup_s):
    yard = Yardstick(wl.yardstick)
    yard.sample()
    ops = run_ops(wl, inp, work, seconds, between=yard.sample)
    failed, wrong, digest, ev = judge(wl, ops, inp, seed)
    raw = {
        "wall_s": statistics.median(op.wall for op in ops),
        "cpu_s": statistics.median(op.cpu for op in ops),
        "setup_s": setup_s,
    }
    f = yard.factor()
    metrics = {k: v * f for k, v in raw.items()}
    metrics["peak_rss_mb"] = max(op.rss_mb for op in ops)
    notes = [f"{yard.kind} yardstick mean {statistics.mean(yard.samples):.4f} s "
             f"over {len(yard.samples)} calls: times below are x {f:.4f}",
             "raw " + ", ".join(f"{k} {v:.6g} s" for k, v in raw.items())]
    return ops, failed, wrong, digest, ev, metrics, notes


def traced_run(wl, inp, work, seed, seconds, names):
    """Pairs of (untraced CLI op, traced pipeline op), then the probes."""
    import tracerun

    pipeline, consistency, probes = tracerun.PIPELINES[wl.kind]
    tr = tracerun.Tracer()
    traced = []

    def trace_after(op):
        res = pipeline(tr, op.out.name, wl, inp / "points.txt")
        if not op.problems:
            op.problems += consistency(wl, res, op.out)
        traced.append((op, None if traced else res))

    ops = run_ops(wl, inp, work, seconds, between=trace_after)
    failed, wrong, digest, ev = judge(wl, ops, inp, seed)
    op, res = traced[0]
    probe_metrics = probes(tr, op.out.name, wl, res, seed)
    per_op = [tracerun.layer_metrics(tr, o.out.name, o.wall, probe_metrics, names)
              for o, _ in traced]
    metrics = {k: statistics.median(m[k] for m in per_op) for k in names}
    metrics["wrong_verdicts"] = wrong if wrong is not None else -1
    tr.write(work.parent / f"spans-{wl.name}-seed{seed}.json")
    return ops, failed, wrong, digest, ev, metrics, []


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # a terminated run unwinds like an exception: the running op is killed
    # and waited for, and the scratch directory removed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "lingeo" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"error: no lingeo sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS, RECORDED_REPORT_SHA256

    spec = json.loads(spec_path.read_text())
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]

    work = ROOT / ".perfbench" / f"{wl.name}-seed{args.seed}-{os.getpid()}"
    inp = work / "input"
    try:
        setup_s = set_up(wl, args.seed, inp)
        if args.trace:
            result = traced_run(wl, inp, work, args.seed, args.seconds, list(units))
        else:
            result = timed_run(wl, inp, work, args.seed, args.seconds, setup_s)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    ops, failed, wrong, digest, ev, metrics, notes = result
    if set(metrics) != set(units):
        print(f"error: metrics {sorted(set(metrics) ^ set(units))} do not match "
              "BENCHMARK.json", file=sys.stderr)
        return 2

    recorded = RECORDED_REPORT_SHA256[wl.name].get(args.seed)
    print(f"workload {wl.name} seed {args.seed}: {len(ops)} ops, closed loop, "
          f"1 client, --threads {wl.threads}, plane-secant cap {wl.cap}")
    print("  op wall s: " + " ".join(f"{op.wall:.3f}" for op in ops))
    for note in notes:
        print(f"  {note}")
    for name in units:
        print(f"  {name:38s} {metrics[name]:>14.6g} {units[name]}")
    print(f"  {'error_rate':38s} {len(failed) / len(ops):>14.6g} "
          f"({len(failed)}/{len(ops)} ops failed)")
    if "wrong_verdicts" not in units:
        print(f"  {'wrong_verdicts':38s} {wrong if wrong is not None else '-':>14} count")
    for prop, (holds, why) in ev.items():
        print(f"  evidence {prop}: {why} -> "
              f"{'unknown' if holds is None else 'holds' if holds else 'fails'}")
    print(f"  report_sha256 {digest} (recorded: "
          f"{'none' if recorded is None else 'match' if recorded == digest else 'DIFFERS'})")
    print(json.dumps({
        "correct": not failed,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
