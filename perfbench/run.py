"""quadheat benchmark: seeded CLI workloads, end-to-end and per-layer metrics.

Usage, from the repository root:

    python3 perfbench/run.py --workload scan-grid --seed 1 --seconds 20 --trace 0

Each job is one in-process ``quadheat.cli.main(argv)`` call with
``--threads 1`` on a config generated from ``--seed``.  Jobs run in rounds
(see workloads.py) until ``--seconds`` have passed; every output is checked
after its job, outside the timed region.  Times are reported in reference
seconds: wall seconds scaled by a calibration loop timed between jobs, so
that the machine's own speed changes cancel (see speed.py).  The wall-clock
figures are printed beside them.

``--trace 0`` prints the end-to-end metrics named in BENCHMARK.json.
``--trace 1`` alternates untraced and traced rounds and prints the per-layer
metrics: per-round counts and self times from tracing.py, the tracing
overhead, and the speed-up of one scan and one evolve job at --threads 2.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
repeat every metric by name and unit, with the figures that have no place
in that object (failed_frac, max_err_ratio, the tail percentile, the
machine and the inputs).
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import redirect_stderr
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
SETUP_REPEATS = 7
TAIL_BEYOND = 10
# Fresh interpreter: time the import and load_config (with its eigendecomposition).
SETUP_CODE = (
    "import sys, time\n"
    "t0 = time.perf_counter()\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "from quadheat.cli import load_config\n"
    "load_config(sys.argv[2])\n"
    "print(repr(time.perf_counter() - t0))\n"
)
CHECK_NAMES = ("mehler", "inversion", "pde_residual", "semigroup",
               "initial_condition", "euclidean", "evenness")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def machine_facts() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "ram_mb": os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE") // 2**20,
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "control": "cores may be shared with other tenants; page cache not dropped; "
                   "no CPU pinning or frequency control",
    }


def setup_seconds(config: Path, speed) -> tuple:
    """Import plus load_config in a fresh interpreter: (seconds, (start, end))."""
    speed.sample()
    t0 = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-c", SETUP_CODE, str(SRC), str(config)],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    return float(done.stdout.strip().splitlines()[-1]), (t0, time.perf_counter())


@dataclass
class Record:
    kind: str
    wall: float
    result: object  # workloads.Result
    traced: bool
    span: tuple  # (start, end) on the perf_counter clock
    ref: float = 0.0  # wall in reference seconds, filled in after the run


class Runner:
    """Runs jobs, checks their outputs and keeps one Record per job."""

    def __init__(self, speed, tracer=None):
        from quadheat.cli import main

        self.main = main
        self.speed = speed
        self.tracer = tracer
        self.records = []
        self.job_id = 0

    def run(self, job, traced: bool = False) -> Record:
        from workloads import Result

        self.speed.sample()
        self.job_id += 1
        main = self.tracer.install(self.job_id) if traced else self.main
        err = io.StringIO()
        rc = None
        t0 = time.perf_counter()
        try:
            with redirect_stderr(err):
                rc = main(job.argv)
        except Exception:  # a traceback is a failed job, not a dead benchmark
            err.write(traceback.format_exc())
        t1 = time.perf_counter()
        if traced:
            self.tracer.uninstall()
        result = Result("failed", message=err.getvalue()[-2000:]) if rc is None \
            else job.check(rc, err.getvalue())
        for path in (job.out, Path(job.argv[2])):
            path.unlink(missing_ok=True)
        rec = Record(job.kind, t1 - t0, result, traced, (t0, t1))
        self.records.append(rec)
        return rec

    def finish(self) -> None:
        """Take a last calibration sample and convert every job to reference seconds."""
        self.speed.sample(force=True)
        for rec in self.records:
            rec.ref = rec.wall * self.speed.scale(*rec.span)


def tail(values: list):
    """Highest percentile with at least TAIL_BEYOND jobs beyond it.

    Below 2 * TAIL_BEYOND jobs that percentile would lie under the median,
    so the maximum is reported instead (percentile 100, none beyond).
    """
    xs = sorted(values)
    if len(xs) < 2 * TAIL_BEYOND:
        return xs[-1], 100.0, 0
    k = len(xs) - TAIL_BEYOND
    return xs[k - 1], 100.0 * k / len(xs), TAIL_BEYOND


def run_rounds(wl, runner, first_round, seconds, t_start, trace, setup_config=None):
    """Whole rounds until the time is up; with tracing, odd rounds are traced.

    With ``setup_config``, set-up is timed SETUP_REPEATS times between rounds,
    spread over the run so that its median sees the same machine phases as
    the jobs do.
    """
    rounds = [0, 0]  # untraced, traced
    setup = []
    jobs = first_round
    while True:
        traced = trace and rounds[0] > rounds[1]
        for job in jobs:
            runner.run(job, traced)
        rounds[traced] += 1
        elapsed = time.perf_counter() - t_start
        if setup_config and elapsed >= len(setup) * seconds / SETUP_REPEATS:
            setup.append(setup_seconds(setup_config, runner.speed))
        if elapsed >= seconds and (not trace or rounds[1] > 0):
            while setup_config and len(setup) < SETUP_REPEATS:
                setup.append(setup_seconds(setup_config, runner.speed))
            return rounds, setup
        jobs = wl.next_round()


def end_to_end(runner, setup) -> tuple:
    """End-to-end metrics in reference seconds, with the wall-clock figures beside."""
    recs = runner.records
    ok = [r for r in recs if r.result.status == "ok"]
    if not ok:
        raise RuntimeError("no job succeeded")
    speed = runner.speed
    setup_ref = [wall * speed.scale(*span) for wall, span in setup]
    value, pct, beyond = tail([r.ref for r in ok])
    errs = [c["error"] / c["tolerance"] for r in recs for c in r.result.checks
            if c["error"] is not None]
    items = sum(r.result.items for r in recs)
    metrics = {
        "job_s.p50": (statistics.median(r.ref for r in ok), "s"),
        "job_s.tail": (value, "s"),
        "items_per_s": (items / sum(r.ref for r in recs), "items/s"),
        "setup_s": (statistics.median(setup_ref), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    extra = {
        "job_s.tail.percentile": round(pct, 1),
        "job_s.tail.jobs": len(ok),
        "job_s.tail.beyond": beyond,
        "failed_frac": sum(r.result.status != "ok" for r in recs) / len(recs),
        "max_err_ratio": max(errs) if errs else None,
        "wall.job_s.p50": statistics.median(r.wall for r in ok),
        "wall.job_s.tail": tail([r.wall for r in ok])[0],
        "wall.items_per_s": items / sum(r.wall for r in recs),
        "wall.setup_s": statistics.median(wall for wall, _ in setup),
        "machine_slowdown": speed.median_factor(),
    }
    return metrics, extra


def per_layer(runner, tracer, rounds, threads2) -> dict:
    traced_rounds = rounds[1]
    recs = runner.records
    traced = [r.ref for r in recs if r.traced and r.result.status == "ok"]
    plain = [r.ref for r in recs if not r.traced and r.result.status == "ok"
             and not r.kind.startswith("threads2_")]
    job_scale = {i + 1: r.ref / r.wall for i, r in enumerate(recs)}
    selfs = tracer.self_times(job_scale)
    c = tracer.counts
    m = {}
    for name, total in selfs.items():
        m[f"{name}.self_s"] = (total / traced_rounds, "s")
    for key in ("spectral.decompose.calls", "kernel.batch.points", "kernel.scalar.calls",
                "kernel.weighted_batch.nodes", "kernel.inversion.calls", "quadrature.nodes",
                "hermite.series.calls", "hermite.series.terms", "boxop.sample.nodes",
                "boxop.stencil.nodes", "boxop.heat_apply.out_points", "boxop.heat_apply.nodes"):
        m[key] = (c[key] / traced_rounds, "count")
    m["kernel.weighted_batch.bytes_computed"] = (c["kernel.weighted_batch.bytes_computed"] / traced_rounds, "B")
    m["spectral.decompose.n"] = (c["spectral.decompose.n"], "count")
    terms = c["hermite.series.terms"]
    m["hermite.series.useful_terms_frac"] = (c["hermite.series.useful_terms"] / terms if terms else 0.0, "ratio")
    traced_results = [r.result for r in recs if r.traced]
    m["cli.emit.bytes"] = (sum(r.out_bytes for r in traced_results) / traced_rounds, "B")
    m["cli.emit.nonfinite_cells"] = (sum(r.nonfinite_cells for r in traced_results) / traced_rounds, "count")
    all_rounds = rounds[0] + rounds[1]
    for check in CHECK_NAMES:
        s = sum(ch["runtime_s"] for r in recs for ch in r.result.checks if ch["name"] == check)
        m[f"verify.{check}.s"] = (s / all_rounds, "s")
    m["trace.overhead_frac"] = (statistics.median(traced) / statistics.median(plain) - 1.0, "ratio")
    m["trace.self_sum_frac"] = (sum(selfs.values()) / sum(r.ref for r in recs if r.traced), "ratio")
    m["cli.threads2_speedup.scan"] = (threads2["scan"], "ratio")
    m["cli.threads2_speedup.evolve"] = (threads2["evolve"], "ratio")
    return m


def threads2_speedups(runner, seed, workdir) -> dict:
    """Jobs run at --threads 1 and --threads 2, untraced; reference seconds compared.

    The first run at --threads 1 only warms the process (fresh pages for the
    evolve grid cost about as much as the job); the next two are compared.
    """
    from workloads import EvolveN2, ScanGrid

    pairs = {}
    for key, make in (("scan", lambda: ScanGrid(seed, workdir / "scan").scan_job("n1")),
                      ("evolve", lambda: EvolveN2(seed, workdir / "evolve").evolve_job(times=2))):
        job = make()
        job.kind = f"threads2_{job.kind}"
        cfg = Path(job.argv[2]).read_bytes()
        recs = []
        for threads in ("1", "2", "1"):
            Path(job.argv[2]).write_bytes(cfg)
            job.argv[-1] = threads
            recs.append(runner.run(job))
        pairs[key] = recs[2], recs[1]
    return pairs


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "quadheat" / "cli.py").is_file():
        sys.stderr.write(f"error: {SRC / 'quadheat'} not found; run from a quadheat checkout\n")
        return 1
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from speed import Speedometer
    from tracing import Tracer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        sys.stderr.write(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}\n")
        return 2
    with open(ROOT / "BENCHMARK.json", "r", encoding="utf-8") as fh:
        bench = json.load(fh)
    wanted = [m["name"] for m in bench["per_layer" if args.trace else "end_to_end"]]
    why = {w["name"]: w["why"] for w in bench["workloads"]}[args.workload]

    workdir = WORK / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        wl = WORKLOADS[args.workload](args.seed, workdir)
        first_round = wl.next_round()
        tracer = Tracer() if args.trace else None
        runner = Runner(Speedometer(), tracer)
        setup_config = None
        if not args.trace:
            setup_config = workdir / "setup.json"
            shutil.copyfile(first_round[0].argv[2], setup_config)
        t_start = time.perf_counter()
        threads2 = threads2_speedups(runner, args.seed, workdir / "threads2") \
            if args.trace else None
        rounds, setup = run_rounds(wl, runner, first_round, args.seconds, t_start,
                                   args.trace, setup_config)
        runner.finish()
        if args.trace:
            threads2 = {k: one.ref / two.ref for k, (one, two) in threads2.items()}
            metrics, extra = per_layer(runner, tracer, rounds, threads2), {}
            tracer.write(WORK / f"spans-{args.workload}-seed{args.seed}.jsonl")
        else:
            metrics, extra = end_to_end(runner, setup)
        with open(WORK / f"jobs-{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
            json.dump({"jobs": [(r.kind, r.wall, r.ref, r.result.status, r.traced)
                                for r in runner.records],
                       "calibration": runner.speed.samples}, fh)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if sorted(metrics) != sorted(wanted):
        sys.stderr.write(f"error: metrics {sorted(set(metrics) ^ set(wanted))} do not match BENCHMARK.json\n")
        return 1
    failures = [(r.kind, r.result.message) for r in runner.records if r.result.status == "failed"]
    known = [(r.kind, r.result.message) for r in runner.records
             if r.result.status == "known_defect"]
    info = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "why": why, "inputs": wl.sizes,
            "rounds": {"untraced": rounds[0], "traced": rounds[1]},
            "machine": machine_facts(), **extra}
    print("# " + json.dumps(info))
    for kind, msg in sorted(set(known)):
        print(f"# known defect in {kind} ({known.count((kind, msg))} jobs): {msg}")
    for kind, msg in failures:
        print(f"# FAILED {kind}: {msg}")
    for name in wanted:
        value, unit = metrics[name]
        print(f"{name:42s} {value!r} {unit}")
    if not args.trace:
        print(f"{'failed_frac':42s} {extra['failed_frac']!r} ratio  (known defects count)")
        print(f"{'max_err_ratio':42s} {extra['max_err_ratio']!r} ratio")
        for name in ("job_s.p50", "job_s.tail", "setup_s"):
            print(f"{'wall.' + name:42s} {extra['wall.' + name]!r} s  (wall clock)")
        print(f"{'wall.items_per_s':42s} {extra['wall.items_per_s']!r} items/s  (wall clock)")
        print(f"{'machine_slowdown':42s} {extra['machine_slowdown']!r} ratio  "
              "(calibration loop over its reference time)")
    print(json.dumps({
        "correct": not failures,
        "attempted": len(runner.records),
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name][0], "unit": metrics[name][1]} for name in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
