"""Benchmark of the ``scrollex`` command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Each job is one fresh CLI process,
spawned the way the ``scrollex`` entry point runs, one at a time (a closed
loop with one client), with ``SCROLLEX_THREADS`` unset.  Fresh processes
matter: ``homology`` keeps a process-global core cache that repeating a job
in one process would warm.  A pass runs every job of the workload once;
passes repeat until ``--seconds`` is spent.  Every job's exit code and
answer fields are checked against ``references.json``.  Times are wall
times scaled by a speed probe that runs next to the jobs (see ``Runner``).

With ``--trace 0`` the last stdout line reports the end-to-end metrics.
With ``--trace 1`` untraced and traced passes alternate; the traced ones run
each job under ``tracer.py`` and the last line reports the per-layer
metrics.  Run details go to ``perfbench/out/<workload>/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import check
import gen
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CLI = "import sys; from scrollex.cli import main; sys.exit(main())"
JOB_TIMEOUT_S = 30
RUN_DEADLINE_S = 150  # jobs not started by then count as timed out
SETUP_STARTS = 5  # before the first pass and again after every untraced pass
MIN_PASSES = 3
TAIL_PASSES = 5  # the tail percentile is the one a run of this many passes resolves
TAIL_PERCENTILES = (99.9, 99, 95, 90, 75, 50)


def _layer_metrics():
    """Per-layer metric name -> (traced functions summed, field of their totals)."""
    fields = {
        "cli.main": ("self_s",),
        "instance.parse_instance": ("self_s", "calls"),
        "graphs.maximal_cliques": ("self_s",),
        "graphs.induced": ("self_s", "calls"),
        "graphs.chordless_cycles": ("self_s", "cycles"),
        "graphs.is_chordal": ("self_s",),
        "homology.betti_table": ("self_s",),
        "homology.clique_homology": ("self_s", "calls"),
        "homology.rank": ("self_s", "calls", "cells"),
        "homology.p2_monomial": ("self_s",),
        "ordering.find_admissible_order": ("self_s",),
        "ordering.variable_order": ("self_s",),
        "extension.generator_system": ("self_s", "nf", "minors"),
        "extension.toricity_gate": ("self_s",),
        "groebner.buchberger_is_groebner": ("self_s",),
        "groebner.normal_form": ("self_s", "calls"),
        "groebner.initial_complex": ("self_s",),
        "bounds.p2_report": ("self_s",),
        "bounds.virtual_minimal_cycles": ("self_s", "cycles"),
        "bounds.classify_edge": ("calls",),
    }
    out = {}
    for fn, names in fields.items():
        sources = ("homology.rank_int", "homology.rank_mod") if fn == "homology.rank" else (fn,)
        for name in names:
            out[f"{fn}.{name}"] = (sources, "self_ns" if name == "self_s" else name)
    return out


LAYER_METRICS = _layer_metrics()

CAL_ROUNDS = 40000
# What one probe takes on an idle core of the 2-vCPU box the bounds were set
# on; reported times are wall times scaled to that speed.
CAL_NOMINAL_S = 0.0065
PROBES = 3
NEAR = 2  # a job is scaled by the probes of the jobs this many places around it


def probe():
    """Seconds a fixed pure-Python loop takes on this CPU now, mean of PROBES runs."""
    start = time.perf_counter()
    for _ in range(PROBES):
        seen = {}
        acc = 0
        for i in range(CAL_ROUNDS):
            key = (i * 7919) % 1024
            acc ^= seen.get(key, i)
            seen[key] = acc + i
    return (time.perf_counter() - start) / PROBES


class Job:
    def __init__(self, member, variant, path, names, reference):
        self.id = f"{member}.{variant}"
        self.command = workloads.VARIANTS[variant][0]
        self.argv = [a.replace("{file}", str(path)) for a in workloads.VARIANTS[variant]]
        self.names = names
        self.reference = reference


def spawn(argv, env, timeout, log):
    """Run ``argv`` to exit; returns (exit code or None on timeout, wall s, max RSS KiB)."""
    with open(f"{log}.out", "wb") as out, open(f"{log}.err", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=out, stderr=err, env=env, cwd=ROOT)
        pidfd = os.pidfd_open(proc.pid)
        try:
            exited = select.select([pidfd], [], [], max(timeout, 0))[0]
            if not exited:
                signal.pidfd_send_signal(pidfd, signal.SIGKILL)
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            os.close(pidfd)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)  # reaped here, not by Popen
    return (proc.returncode if exited else None), wall, usage.ru_maxrss


def load_references():
    """references.json, after checking it against every closed form."""
    refs = json.loads((HERE / "references.json").read_text())
    for key, ref in refs["jobs"].items():
        member, variant = key.split("/")
        form = check.closed_form(workloads.MEMBERS[member], variant)
        if form is not None and (form["exit"], form["answer"]) != (ref["exit"], ref["answer"]):
            raise SystemExit(f"references.json: {key} disagrees with its closed form")
    return refs


def make_jobs(workload, seed, refs, inputs):
    """Write the seeded inputs; returns the jobs and each input file's sha256."""
    jobs, names, digests = [], {}, {}
    for member, variant in workloads.jobs(workload, seed, refs["jobs"]):
        path = inputs / f"{member}.json"
        if member not in names:
            if gen.sha256(gen.build(workloads.MEMBERS[member])) != refs["sha256"][member]:
                raise SystemExit(f"the generator no longer reproduces {member}")
            doc, names[member] = workloads.instance(member, seed)
            digests[member] = gen.sha256(doc)
            path.write_bytes(gen.canonical_bytes(doc))
        jobs.append(Job(member, variant, path, names[member], refs["jobs"][f"{member}/{variant}"]))
    return jobs, digests


def tail(samples, jobs_per_pass):
    """(value, percentile, samples beyond) for ``job_tail_s``.

    The percentile is the highest listed one that leaves at least 10 samples
    beyond it after TAIL_PASSES passes, so it depends on the workload alone
    and not on how many passes a run fits in.
    """
    floor = jobs_per_pass * TAIL_PASSES
    p = next(p for p in TAIL_PERCENTILES if floor - math.ceil(p / 100 * floor) >= 10 or p == 50)
    s = sorted(samples)
    k = math.ceil(p / 100 * len(s))
    return s[k - 1], p, len(s) - k


class Runner:
    """Spawns jobs one at a time, each after a speed probe on the same CPU.

    A job's scale is CAL_NOMINAL_S over the mean probe time of the jobs
    within NEAR places of it in its pass; a group of set-up starts shares
    one scale, and so do a traced pass's self times.  The host this was
    built on shares its cores with other tenants, and their load changes the
    speed of a core by up to 1.5x within seconds; the probe sees the same
    slowdown as the jobs next to it.
    """

    def __init__(self, jobs, env, out, deadline):
        self.jobs = jobs
        self.env = env
        self.out = out
        self.deadline = deadline
        self.passes = []
        self.setup = []

    def _spawn(self, argv, log):
        cal = probe()
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            return {"exit": None, "wall_s": 0.0, "cal_s": cal, "max_rss_kib": 0, "ran": False}
        code, wall, rss = spawn(argv, self.env, min(JOB_TIMEOUT_S, remaining), log)
        return {"exit": code, "wall_s": wall, "cal_s": cal, "max_rss_kib": rss, "ran": True}

    def set_up(self):
        """SETUP_STARTS fresh interpreters importing scrollex.cli."""
        if time.monotonic() > self.deadline:
            return
        log = self.out / "logs" / "setup"
        starts = [self._spawn([sys.executable, "-c", "import scrollex.cli"], log) for _ in range(SETUP_STARTS)]
        if any(s["ran"] and s["exit"] != 0 for s in starts):
            sys.exit(f"import scrollex.cli failed; see {log}.err")
        scale = CAL_NOMINAL_S / statistics.mean(s["cal_s"] for s in starts)
        self.setup.append({"scale": scale, "starts": starts})

    def run_pass(self, traced, plain_stdout=None):
        """One pass over every job; returns each job's stdout."""
        rows, stdout, totals = [], {}, {}
        start = time.perf_counter()
        for job in self.jobs:
            log = self.out / "logs" / f"{job.id}.{'traced' if traced else 'plain'}"
            spans = self.out / "spans" / f"{job.id}.json"
            spans.unlink(missing_ok=True)
            if traced:
                argv = [sys.executable, str(HERE / "tracer.py"), str(spans), *job.argv]
            else:
                argv = [sys.executable, "-c", CLI, *job.argv]
            row = {"job": job.id, **self._spawn(argv, log)}
            out = Path(f"{log}.out").read_bytes() if row["ran"] else b""
            if row["exit"] is None:
                status, detail = "failed", "timed out" if row["ran"] else "not run: run deadline"
            else:
                err = Path(f"{log}.err").read_text(errors="replace")
                status, detail = check.verdict(job.command, job.reference, row["exit"], out, err, job.names)
            if traced and out != plain_stdout[job.id]:
                status, detail = "wrong", "traced stdout differs from untraced stdout"
            if traced and spans.is_file():
                for name, t in json.loads(spans.read_text())["totals"].items():
                    acc = totals.setdefault(name, {})
                    for k, v in t.items():
                        acc[k] = acc.get(k, 0) + v
            stdout[job.id] = out
            rows.append({**row, "status": status, "detail": detail})
        for i, r in enumerate(rows):
            near = rows[max(0, i - NEAR) : i + NEAR + 1]
            r["scale"] = CAL_NOMINAL_S / statistics.mean(n["cal_s"] for n in near)
        scale = CAL_NOMINAL_S / statistics.mean(r["cal_s"] for r in rows)
        record = {"traced": traced, "elapsed_s": time.perf_counter() - start, "scale": scale,
                  "jobs_s": sum(r["wall_s"] for r in rows), "jobs": rows}
        if traced:
            record["totals"] = totals
        self.passes.append(record)
        return stdout

    def of(self, traced):
        return [p for p in self.passes if p["traced"] == traced]


def per_job(passes):
    """Each job's scaled times over ``passes``, job by job."""
    times = {}
    for p in passes:
        for r in p["jobs"]:
            times.setdefault(r["job"], []).append(r["wall_s"] * r["scale"])
    return times


def typical_pass(job_times):
    """One pass's time built from each job's median over passes.

    A single slow stretch on the host inflates one job of one pass; taking
    each job's median first keeps it out of the sum.
    """
    return sum(statistics.median(t) for t in job_times.values())


def layer_values(totals, scale):
    """Per-layer metrics of one traced pass; times scaled like the pass."""
    out = {}
    for metric, (sources, field) in LAYER_METRICS.items():
        value = sum(totals.get(s, {}).get(field, 0) for s in sources)
        out[metric] = value * 1e-9 * scale if field == "self_ns" else value
    return out


def git_rev():
    """The checked-out commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    started = time.monotonic()
    # jobs and speed probes share one CPU, so a probe sees the jobs' slowdowns
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})

    if not (ROOT / "src" / "scrollex" / "cli.py").is_file():
        sys.exit(f"no scrollex sources under {ROOT / 'src'}: run from a full source checkout")
    refs = load_references()
    out = HERE / "out" / args.workload
    shutil.rmtree(out, ignore_errors=True)
    for sub in ("inputs", "logs", "spans"):
        (out / sub).mkdir(parents=True)
    jobs, digests = make_jobs(args.workload, args.seed, refs, out / "inputs")

    env = {k: v for k, v in os.environ.items() if k not in ("SCROLLEX_THREADS", "PYTHONPATH")}
    env["PYTHONPATH"] = str(ROOT / "src")
    runner = Runner(jobs, env, out, started + RUN_DEADLINE_S)
    runner.set_up()
    load_start = os.getloadavg()
    measure_start = time.perf_counter()
    while True:
        stdout = runner.run_pass(False)
        runner.set_up()
        if args.trace:
            runner.run_pass(True, stdout)
        spent = time.perf_counter() - measure_start
        if len(runner.of(False)) >= MIN_PASSES and spent * (1 + 1 / len(runner.of(False))) > args.seconds:
            break
        if time.monotonic() > runner.deadline:
            break
    load_end = os.getloadavg()

    plain = runner.of(False)
    setup = [s["wall_s"] * b["scale"] for b in runner.setup for s in b["starts"]]
    job_times = per_job(plain)
    samples = [t for times in job_times.values() for t in times]
    rows = [r for p in runner.passes for r in p["jobs"]]
    attempted = len(rows)
    failed = sum(r["status"] != "ok" for r in rows)
    wrong = sorted({(r["job"], r["detail"]) for r in rows if r["status"] == "wrong"})
    tail_s, tail_p, tail_beyond = tail(samples, len(jobs))
    plain_failed = sum(r["status"] != "ok" for p in plain for r in p["jobs"])
    end_to_end = {
        "setup_s": (statistics.median(setup), "s"),
        "pass_s": (typical_pass(job_times), "s"),
        "job_p50_s": (statistics.median(statistics.median(t) for t in job_times.values()), "s"),
        "peak_rss_mb": (statistics.median(max(r["max_rss_kib"] for r in p["jobs"]) / 1024 for p in plain), "MiB"),
    }
    scale = statistics.median(p["scale"] for p in plain)
    notes = {
        "setup_s": f"median of {len(setup)} interpreter starts",
        "pass_s": f"{len(jobs)} jobs, each its median over {len(plain)} passes; "
                  f"raw wall {statistics.median(p['jobs_s'] for p in plain):.4f} s a pass at scale {scale:.3f}",
        "job_p50_s": "median over jobs of each job's median",
        "peak_rss_mb": "median over passes of the largest job",
    }
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "git_rev": git_rev(), "python": platform.python_version(), "nproc": len(os.sched_getaffinity(0)),
        "loadavg_start": load_start, "loadavg_end": load_end, "jobs_per_pass": len(jobs),
        "inputs_sha256": digests, "setup": runner.setup, "passes": runner.passes,
    }

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"{len(jobs)} jobs per pass  loadavg {load_start[0]:.2f} -> {load_end[0]:.2f}")
    for name, (value, unit) in end_to_end.items():
        print(f"  {name:<12} {value:10.4f} {unit:<4} {notes[name]}")
    print(f"  {'job_tail_s':<12} {tail_s:10.4f} {'s':<4} p{tail_p:g} of {len(samples)} job times, "
          f"{tail_beyond} beyond it (not gated: see README)")
    print(f"  {'fail_ratio':<12} {plain_failed / len(samples):10.4f} {'1':<4} "
          f"{plain_failed} of {len(samples)} untraced jobs failed")
    for job_id, detail in sorted({(r["job"], r["detail"]) for r in rows if r["status"] != "ok"}):
        print(f"  failed: {job_id}: {detail}")

    if args.trace:
        traced = runner.of(True)
        per_pass = [layer_values(p["totals"], p["scale"]) for p in traced]
        metrics = {}
        for name in LAYER_METRICS:
            values = [v[name] for v in per_pass]
            if name.endswith("self_s"):
                metrics[name] = (statistics.median(values), "s")
            else:
                if len(set(values)) != 1:
                    print(f"  warning: {name} differs between traced passes: {values}")
                metrics[name] = (values[0], "count")
        metrics["trace.overhead_s"] = (typical_pass(per_job(traced)) - end_to_end["pass_s"][0], "s")
        metrics["fail_ratio"] = (failed / attempted, "1")
        report["per_layer"] = {k: v for k, (v, _) in metrics.items()}
        for name, (value, unit) in metrics.items():
            print(f"  {name:<42} {value:14.6f} {unit}")
    else:
        metrics = end_to_end
    report["end_to_end"] = {k: v for k, (v, _) in end_to_end.items()}
    report["job_tail_s"] = {"value": tail_s, "percentile": tail_p, "samples": len(samples), "beyond": tail_beyond}
    (out / "run.json").write_text(json.dumps(report, indent=1) + "\n")
    for job_id, detail in wrong:
        print(f"  WRONG ANSWER: {job_id}: {detail}")
    print(json.dumps({
        "correct": not wrong,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
