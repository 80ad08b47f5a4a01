#!/usr/bin/env python3
"""Seeded end-to-end benchmark of the toricval CLI, with a traced per-layer run.

    python3 perfbench/run.py --workload faces --seed 1 --seconds 36 --trace 0

Run from anywhere inside a checkout; it needs ``src/toricval`` and
``tests/oracles.py`` next to this directory.  Each workload is a closed loop:
one client, one process, one thread.  A job calls ``toricval.cli.main(argv)``
in-process on a generated JSON file (``rationalize`` calls the library) and
captures stdout and the exit code.  The job list runs in passes until
``--seconds`` are spent (at least two passes); the first pass is checked
exactly, later passes must repeat its bytes.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json:

- setup_s: median wall time of fresh ``python -m toricval check-cone
  tests/fixtures/C1.json`` processes (start-up, import, one tiny job);
- batch_s: wall time of the whole job list, the sum over jobs of each job's
  median wall time across the passes;
- job_p50_s, job_p90_s: median and 90th percentile of those per-job times;
- peak_rss_mb: peak resident memory of the benchmark process.

``--trace 1`` reports the per-layer metrics instead: a separate pass with
spans around the toolkit's public functions (see ``tracing``), a counting
pass for FieldElement constructions and the field microbenchmarks.

Lines before the last one are a readable report: the environment, fail_frac
(failed jobs over jobs attempted), each failed job with its reason, and the
jobs whose output bytes moved against the digests recorded in
``digests.json``.  The last line is one JSON object with the keys correct,
attempted, failed and metrics.  ``correct`` is false when a job gives a wrong
answer: a wrong exit code, an untyped exception, a failed exact check, or
bytes that differ between passes.  A generator set that misses a semigroup
member of the checked box, or a job over the wall-clock cap, is a failed job
without being a wrong answer.  ``--workload all`` runs the three workloads in
turn.  Inputs and result files go to ``.perfbench_work/`` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
from contextlib import redirect_stdout
from fractions import Fraction as F
from pathlib import Path
from time import perf_counter

import checks
import fieldbench
import tracing
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".perfbench_work"
DIGESTS = BENCH / "digests.json"

JOB_CAP_S = 10.0  # a job running longer fails and the run moves on
SETUP_REPS = 9
MIN_PASSES = 2


def metric_units(trace):
    """Metric name -> unit, in BENCHMARK.json order, for one kind of run."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


class JobTimeout(BaseException):
    """Raised by the wall-clock cap; a BaseException so no handler in the
    program under test can swallow it."""


_armed = False


def _on_alarm(signum, frame):
    if _armed:
        raise JobTimeout()


# -- one job ----------------------------------------------------------------------


def _run_rationalize(path, targets):
    from toricval import _io, classify
    from toricval.admissible import SemigroupElement
    from toricval.errors import MathematicalNo, ToricValError
    from toricval.ordfield import FieldElement

    try:
        gens = _io.genset_from_json(_io.load_path(path))
        reps = []
        for u, g in targets:
            rep = classify.rationalize(SemigroupElement(tuple(u), FieldElement(F(g))), gens)
            reps.append({"lambda": [f"{x.numerator}/{x.denominator}" for x in rep.lambda_hat],
                         "kappa": _io.fe_to_json(rep.kappa)})
    except MathematicalNo as exc:
        sys.stdout.write(json.dumps({"error": str(exc), "kind": type(exc).__name__}) + "\n")
        return 2
    except ToricValError as exc:
        sys.stdout.write(json.dumps({"error": str(exc), "kind": type(exc).__name__}) + "\n")
        return 1
    sys.stdout.write(json.dumps({"reps": reps}, sort_keys=True) + "\n")
    return 0


def execute(job, indir):
    """(seconds, exit code, stdout, error) of one job; error is None, "cap"
    or the name of an exception that escaped the program."""
    from toricval import cli

    global _armed
    path = str(indir / job["input"])
    buf = io.StringIO()
    err = code = None
    t0 = perf_counter()
    _armed = True
    signal.setitimer(signal.ITIMER_REAL, JOB_CAP_S)
    try:
        with redirect_stdout(buf):
            if job["cmd"] == "rationalize":
                code = _run_rationalize(path, job["expect"]["targets"])
            else:
                code = cli.main([job["cmd"], path, *job["flags"]])
    except JobTimeout:
        err = "cap"
    except Exception as exc:  # an untyped exception is a job failure, not a crash
        err = f"{type(exc).__name__}: {exc}"
    finally:
        _armed = False
        signal.setitimer(signal.ITIMER_REAL, 0)
    return perf_counter() - t0, code, buf.getvalue(), err


def run_pass(jobs, indir, tracer=None):
    results = []
    t0 = perf_counter()
    for job in jobs:
        if tracer is None:
            results.append(execute(job, indir))
        else:
            tracer.job = job["id"]
            with tracer.span("job"):
                results.append(execute(job, indir))
    return perf_counter() - t0, results


# -- measurement --------------------------------------------------------------------


def measure_setup():
    """Median wall time of a fresh `python -m toricval check-cone` process."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    argv = [sys.executable, "-m", "toricval", "check-cone", "tests/fixtures/C1.json"]
    times = []
    for _ in range(SETUP_REPS):
        t0 = perf_counter()
        proc = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, timeout=60)
        times.append(perf_counter() - t0)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stdout!r} {proc.stderr!r}")
    return statistics.median(times)


def environment(seed):
    from toricval._rational import Q

    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() if proc.returncode == 0 else None
    except (OSError, subprocess.SubprocessError):
        commit = None
    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "toricval").rglob("*.py")):
        src.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), None)
    except OSError:
        pass
    return {"python": platform.python_version(), "implementation": platform.python_implementation(),
            "rational_backend": f"{Q.__module__}.{Q.__qualname__}",
            "nproc": len(os.sched_getaffinity(0)), "cpu": cpu, "seed": seed,
            "commit": commit, "src_sha256": src.hexdigest()}


def _digest(code, text):
    return hashlib.sha256(f"{code}\n{text}".encode()).hexdigest()


class Verdicts:
    """First failure of each job: kind "wrong" (a wrong answer, which makes
    the run incorrect), "incomplete" (generator set misses a member) or
    "cap" (ran past the wall-clock cap)."""

    def __init__(self):
        self.failures = {}

    def fail(self, job, kind, reason):
        self.failures.setdefault(job["id"], (kind, reason))

    def judge_first(self, jobs, results):
        outputs = {job["id"]: text for job, (_, _, text, _) in zip(jobs, results)}
        for job, (_, code, text, err) in zip(jobs, results):
            if err is not None:
                self.fail(job, "cap" if err == "cap" else "wrong", err)
            elif code != job["exit"]:
                self.fail(job, "wrong", f"exit {code}, expected {job['exit']}")
            else:
                bad = checks.check(job, text, outputs)
                if bad:
                    self.fail(job, *bad)

    def judge_repeat(self, jobs, first, results):
        for job, (_, code0, text0, _), (_, code, text, err) in zip(jobs, first, results):
            if err == "cap":
                self.fail(job, "cap", "cap")
            elif err is not None:
                self.fail(job, "wrong", err)
            elif (code, text) != (code0, text0):
                self.fail(job, "wrong", "output bytes differ between executions")

    def correct(self):
        return all(kind != "wrong" for kind, _ in self.failures.values())


def layer_metrics(tracer):
    st = tracer.self_times()
    c = tracer.counts
    tried = c["polyhedra.facet_subsets_tried"]
    return {
        "polyhedra.face_lattice_calls": c["polyhedra.face_lattice_calls"],
        "polyhedra.face_lattice_s": st["polyhedra.face_lattice"],
        "polyhedra.facet_subsets_tried": tried,
        "polyhedra.faces_found": c["polyhedra.faces_found"],
        "polyhedra.face_yield": c["polyhedra.faces_found"] / tried if tried else 0.0,
        "polyhedra.dd_pair_calls": c["polyhedra.dd_pair_calls"],
        "polyhedra.dd_pair_s": st["polyhedra.dd_pair"],
        "polyhedra.dd_rays_out": c["polyhedra.dd_rays_out"],
        "polyhedra.from_rays_calls": c["polyhedra.from_rays_calls"],
        "lp.solve_min_calls": c["lp.solve_min_calls"],
        "lp.solve_min_s": st["lp.solve_min"],
        "admissible.make_admissible_s": st["admissible.make_admissible"],
        "admissible.algebra_generators_s": st["admissible.algebra_generators"],
        "admissible.minimal_height_calls": c["admissible.minimal_height_calls"],
        "classify.saturation_check_s": st["classify.saturation_check"],
        "classify.member_calls": c["classify.member_calls"],
        "classify.rationalize_s": st["classify.rationalize"],
        "classify.round_trip_s": st["classify.round_trip"],
        "fans.fan_from_cones_s": st["fans.fan_from_cones"],
        "fans.pairs_checked": c["polyhedra.intersect_calls"],
        "fans.slice_complex_s": st["fans.slice_complex"],
        "projtoric.weight_subdivision_s": st["projtoric.weight_subdivision"],
        "projtoric.cells": c["projtoric.cells"],
        "io.load_s": st["io.load"],
        "io.dump_s": st["io.dump"],
    }


def run_workload(workload, seed, seconds, trace):
    units = metric_units(trace)
    indir = WORK / f"{workload}-s{seed}-t{trace}-{os.getpid()}"
    shutil.rmtree(indir, ignore_errors=True)
    indir.mkdir(parents=True)
    try:
        jobs = workloads.build(workload, seed, indir)
        metrics = {}
        if not trace:
            metrics["setup_s"] = measure_setup()
        verdicts = Verdicts()
        untraced, traced, layer = [], [], []
        first_s, first = run_pass(jobs, indir)
        untraced.append((first_s, first))
        verdicts.judge_first(jobs, first)
        spent = first_s
        tracer = tracing.Tracer() if trace else None
        constructed = None
        while True:
            passes = len(untraced) + len(traced)
            if passes >= MIN_PASSES and (not trace or (traced and constructed is not None)):
                if spent + spent / passes > seconds:
                    break
            if trace and constructed is None and traced:
                with tracing.counting_constructions() as box:
                    pass_s, results = run_pass(jobs, indir)
                constructed = box[0]
                verdicts.judge_repeat(jobs, first, results)
                spent += pass_s
                continue
            if trace and len(traced) <= len(untraced) - 1:
                tracer.reset()
                with tracer.installed():
                    pass_s, results = run_pass(jobs, indir, tracer)
                traced.append((pass_s, results))
                layer.append(layer_metrics(tracer))
            else:
                pass_s, results = run_pass(jobs, indir)
                untraced.append((pass_s, results))
            verdicts.judge_repeat(jobs, first, results)
            spent += pass_s

        # a job's time is its median over the untraced passes, and the job
        # list's time is the sum of those, which damps bursts of host noise
        per_job = [statistics.median(res[i][0] for _, res in untraced) for i in range(len(jobs))]
        batch_s = sum(per_job)
        if trace:
            for name in layer[-1]:
                values = [m[name] for m in layer]
                metrics[name] = statistics.median(values) if units[name] == "s" else values[-1]
            metrics.update(fieldbench.field_metrics(seed))
            metrics["field.fe_constructed"] = constructed
            metrics["trace.overhead_frac"] = (statistics.median(p for p, _ in traced)
                                              / statistics.median(p for p, _ in untraced) - 1)
            spans = tracer.spans
        else:
            metrics["batch_s"] = batch_s
            metrics["job_p50_s"] = statistics.median(per_job)
            metrics["job_p90_s"] = statistics.quantiles(per_job, n=10)[8]
            metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            spans = None
    finally:
        shutil.rmtree(indir, ignore_errors=True)

    digests = {job["id"]: _digest(code, text) for job, (_, code, text, _) in zip(jobs, first)}
    baseline = None
    if DIGESTS.is_file():
        baseline = json.loads(DIGESTS.read_text()).get(workload, {}).get(str(seed))
    moved = None if baseline is None else sorted(k for k, v in digests.items() if baseline.get(k) != v)
    result = {
        "workload": workload, "trace": trace, "env": environment(seed),
        "passes": {"untraced": [p for p, _ in untraced], "traced": [p for p, _ in traced]},
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
        "attempted": len(jobs), "failed": len(verdicts.failures),
        "fail_frac": len(verdicts.failures) / len(jobs), "correct": verdicts.correct(),
        "failures": {k: list(v) for k, v in sorted(verdicts.failures.items())},
        "digests": digests, "moved": moved,
        "jobs": [dict({k: job[k] for k in ("id", "cmd", "family", "flags", "exit")}, seconds=t)
                 for job, t in zip(jobs, per_job)],
    }
    resdir = WORK / "results"
    resdir.mkdir(parents=True, exist_ok=True)
    stem = resdir / f"{workload}-seed{seed}-trace{trace}"
    stem.with_suffix(".json").write_text(json.dumps(result, indent=1, sort_keys=True))
    if spans is not None:
        with open(stem.with_suffix(".spans.jsonl"), "w", encoding="utf-8") as fh:
            for rec in spans:
                fh.write(json.dumps(rec) + "\n")
    report(result)
    return result


def report(result):
    wl = result["workload"]
    print(f"# workload {wl}: {result['attempted']} jobs, untraced passes "
          f"{[round(p, 3) for p in result['passes']['untraced']]}, traced passes "
          f"{[round(p, 3) for p in result['passes']['traced']]}")
    print("# env " + json.dumps(result["env"], sort_keys=True))
    for name, m in result["metrics"].items():
        print(f"# {wl} {name} = {m['value']:.6g} {m['unit']}")
    print(f"# {wl} fail_frac = {result['fail_frac']:.4f} ({result['failed']} of {result['attempted']} jobs)")
    for jid, (kind, reason) in result["failures"].items():
        print(f"#   failed {jid} [{kind}] {reason}")
    if result["moved"] is None:
        print(f"# {wl} digests: no recorded baseline for seed {result['env']['seed']}")
    else:
        print(f"# {wl} digests: {len(result['moved'])} jobs moved against the recorded baseline "
              f"{result['moved']}")


def main(argv=None):
    import_ok = all((ROOT / p).is_file() for p in (
        "BENCHMARK.json", "src/toricval/cli.py", "tests/oracles.py", "tests/fixtures/C1.json"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not import_ok:
        print("perfbench: BENCHMARK.json, src/toricval or tests/oracles.py is missing next to "
              "perfbench/; run it from a toricval checkout", file=sys.stderr)
        return 1
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    signal.signal(signal.SIGALRM, _on_alarm)

    names = workloads.WORKLOADS if args.workload == "all" else [args.workload]
    results = [run_workload(wl, args.seed, args.seconds, args.trace) for wl in names]
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in results for k, v in r["metrics"].items()}
    print(json.dumps({"correct": all(r["correct"] for r in results),
                      "attempted": sum(r["attempted"] for r in results),
                      "failed": sum(r["failed"] for r in results),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
