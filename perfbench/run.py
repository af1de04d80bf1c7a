"""elopt benchmark: time to a checked bracket, driving the ``elopt`` CLI as a user would.

Run from the repository root::

    python3 perfbench/run.py --workload lp_bracket --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1     # every workload, one summary each

One closed-loop client runs one job at a time, each in a fresh
``python3 -m elopt`` process, on configs generated from ``--seed`` (see
``workloads.py``).  Every output is checked (``gates.py``); a job that fails a
check counts in ``failed``.  Jobs cycle in order until ``--seconds`` have
passed, and the job list always runs at least once, so some jobs repeat and
their stdout and artifacts must then be byte-identical.

Between jobs the client runs ``probe.py``, a fixed reference job that does
not use elopt, so that probes take about ``PROBE_SHARE`` of the job time,
spread over the run.  The host's speed drifts by tens of percent within
minutes, so every end-to-end time is scaled by ``PROBE_REF_S`` over the mean
of the middle half of the run's probe times: it reads as seconds on a host
where the probe takes ``PROBE_REF_S``.  The summary lines give the unscaled
times and that probe time beside them.

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json.  ``--trace 1``
runs each job twice, plain and under ``launch.py``, which records spans per
module; it prints the per-layer metrics of ``layers.py``, including the
tracing overhead (traced minus plain wall time).  The span dumps are kept as
JSONL under ``perfbench/.work/<workload>/spans.jsonl``.  The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import gates
import layers
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / ".work"

SETUP_REPEATS = 3
JOB_TIMEOUT_S = 120
TAIL_BEYOND = 10        # job_tail_s: highest percentile with this many jobs beyond it
PROBE_SHARE = 0.25      # probe time / job time, kept after every job
PROBE_REF_S = 0.8       # probe time that end-to-end times are scaled to

END_TO_END = {"setup_s": "s", "wall_s": "s", "job_p50_s": "s", "job_tail_s": "s", "peak_rss_mb": "MB"}
LP_COUNTERS = ("rows", "nnz", "crossing_rows", "iterations", "status")


class BenchError(Exception):
    """The benchmark cannot run: no program to drive, or it does not start."""


@dataclass
class Execution:
    job: workloads.Job
    seconds: float
    rss_mb: float
    problems: list[str]
    bytes_written: int
    gap: float | None
    spans: list[dict] = field(default_factory=list)


def spawn(cmd: list[str], job_dir: Path, env: dict) -> tuple[float, float, int]:
    """Run one process to completion; returns (wall seconds, peak RSS in MB, exit code)."""
    with open(job_dir / "stdout", "wb") as out, open(job_dir / "stderr", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=env, cwd=ROOT)
        timer = threading.Timer(JOB_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        seconds = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return seconds, usage.ru_maxrss / 1024.0, proc.returncode


def _digest(stdout: bytes, out: Path) -> tuple[str, int]:
    h = hashlib.sha256(stdout)
    written = len(stdout)
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        data = path.read_bytes()
        h.update(path.relative_to(out).as_posix().encode() + b"\0" + data)
        written += len(data)
    return h.hexdigest(), written


class Client:
    """Closed-loop client: one job at a time, each in a fresh process."""

    def __init__(self, run_dir: Path, configs: dict[str, Path]) -> None:
        self.run_dir = run_dir
        self.configs = configs
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
        self.started = 0
        self.digests: dict[str, str] = {}
        self.probe_output: bytes | None = None

    def run(self, job: workloads.Job, traced: bool = False) -> Execution:
        self.started += 1
        job_dir = self.run_dir / "jobs" / f"{self.started:05d}"
        out = job_dir / "out"
        out.mkdir(parents=True)
        cli = ["--config", str(self.configs[job.surface.name])]
        cli += [arg.replace("{out}", str(out)) for arg in job.argv]
        spans_path = job_dir / "spans.jsonl"
        if traced:
            cmd = [sys.executable, str(BENCH / "launch.py"), str(spans_path), job.id, *cli]
        else:
            cmd = [sys.executable, "-m", "elopt", *cli]
        seconds, rss_mb, code = spawn(cmd, job_dir, self.env)
        stdout = (job_dir / "stdout").read_bytes()
        problems = gates.problems(job, code, stdout, out)
        if code != 0:
            problems.append((job_dir / "stderr").read_text(errors="replace").strip())
        digest, written = _digest(stdout, out)
        shutil.rmtree(out)
        first = self.digests.setdefault(job.id, digest)
        if digest != first:
            problems.append("stdout or artifacts differ from an earlier run of the same job")
        gap = None if problems else gates.bracket_gap(job, stdout)
        spans = layers.read_spans(spans_path) if traced and spans_path.exists() else []
        return Execution(job, seconds, rss_mb, problems, written, gap, spans)

    def probe(self) -> float:
        """Wall seconds of one ``probe.py`` process; its output must repeat exactly."""
        probe_dir = self.run_dir / "probe"
        probe_dir.mkdir(exist_ok=True)
        seconds, _, code = spawn([sys.executable, str(BENCH / "probe.py")], probe_dir, self.env)
        output = (probe_dir / "stdout").read_bytes()
        if code != 0 or self.probe_output not in (None, output):
            raise BenchError(f"the host-speed probe failed (exit code {code}, output {output!r})")
        self.probe_output = output
        return seconds


def set_up(workload: str, seed: int) -> tuple[float, Client, list[workloads.Job]]:
    """Fresh work directory, generated configs and one warm-up run of the program."""
    start = time.perf_counter()
    run_dir = WORK / workload
    shutil.rmtree(run_dir, ignore_errors=True)
    job_list = workloads.jobs(workload, seed)
    client = Client(run_dir, workloads.write_configs(job_list, seed, run_dir / "configs"))
    surface = job_list[0].surface
    warm = client.run(workloads.Job(f"{surface.name}.validate", "validate", surface, ("--format", "json", "validate")))
    if warm.problems:
        raise BenchError(f"the program does not run: {'; '.join(warm.problems)}")
    return time.perf_counter() - start, client, job_list


def _tail(times: list[float]) -> tuple[float, float]:
    """Value and percentile of the highest sample with TAIL_BEYOND samples above it.

    Below 2 * TAIL_BEYOND + 1 samples that sample would not lie above the
    median, so the maximum stands in for the tail.
    """
    ordered = sorted(times)
    n = len(ordered)
    k = n - 1 - TAIL_BEYOND if n > 2 * TAIL_BEYOND else n - 1
    return ordered[k], 100.0 * k / (n - 1) if n > 1 else 100.0


class LPLedger:
    """LP counters per (surface, m): must repeat exactly within a run and across runs of the same code."""

    def __init__(self) -> None:
        code = hashlib.sha256()
        for path in sorted((SRC / "elopt").glob("*.py")):
            code.update(path.read_bytes())
        self.path = WORK / f"lp_counters-{code.hexdigest()[:16]}.json"
        self.seen = json.loads(self.path.read_text()) if self.path.exists() else {}

    def check(self, spans: list[dict]) -> list[str]:
        found: dict[str, dict] = defaultdict(dict)
        for span in spans:
            if span["name"] in ("lp_oracle.build_lp", "lp_oracle.solve_lp"):
                found[span["key"]].update({k: span[k] for k in LP_COUNTERS if k in span})
        problems = []
        for key, counters in found.items():
            if counters.get("status") != "optimal":
                problems.append(f"{key}: solver status {counters.get('status')!r}")
            known = self.seen.setdefault(key, counters)
            if known != counters:
                problems.append(f"{key}: LP counters {counters} differ from an earlier run {known}")
        return problems

    def save(self) -> None:
        self.path.write_text(json.dumps(self.seen, indent=1, sort_keys=True) + "\n")


def measure(client: Client, job_list: list, seconds: float) -> tuple[list[Execution], list[float]]:
    """Plain runs and probe times: the job list at least once, then cycling until ``seconds`` have passed.

    A probe runs first; after each job, probes run until their time is
    ``PROBE_SHARE`` of the job time so far.
    """
    start = time.perf_counter()
    runs: list[Execution] = []
    probes = [client.probe()]
    while len(runs) < len(job_list) or time.perf_counter() - start < seconds:
        runs.append(client.run(job_list[len(runs) % len(job_list)]))
        while sum(probes) < PROBE_SHARE * sum(e.seconds for e in runs):
            probes.append(client.probe())
    return runs, probes


def measure_traced(client: Client, job_list: list, seconds: float, seed: int) -> list[tuple]:
    """(plain, traced) pairs of the same job, alternating which runs first, until ``seconds`` pass."""
    order = random.Random(seed).sample(job_list, len(job_list))
    ledger = LPLedger()
    start = time.perf_counter()
    pairs = []
    while not pairs or time.perf_counter() - start < seconds:
        job = order[len(pairs) % len(order)]
        if len(pairs) % 2:
            traced = client.run(job, traced=True)
            plain = client.run(job)
        else:
            plain = client.run(job)
            traced = client.run(job, traced=True)
        traced.problems += ledger.check(traced.spans)
        pairs.append((plain, traced))
    ledger.save()
    with open(client.run_dir / "spans.jsonl", "w") as stream:
        for _, traced in pairs:
            stream.writelines(json.dumps(span) + "\n" for span in traced.spans)
    return pairs


def host_probe(probes: list[float]) -> float:
    """Mean of the middle half of the probe times: steadier than the median, blind to stray probes."""
    ordered = sorted(probes)
    quarter = len(ordered) // 4
    return statistics.fmean(ordered[quarter:len(ordered) - quarter])


def end_to_end(setups: list[float], runs: list[Execution], probes: list[float]) -> tuple[dict, dict]:
    """END_TO_END values of a plain run, and a note per metric saying how it was taken.

    Job times are per distinct job (its median over its runs), so every run of
    a workload takes its percentiles over the same number of jobs.  Times are
    scaled by PROBE_REF_S / ``host_probe(probes)``; the notes give them unscaled.
    """
    by_job = defaultdict(list)
    for e in runs:
        by_job[e.job.id].append(e.seconds)
    times = [statistics.median(v) for v in by_job.values()]
    tail, pct = _tail(times)
    raw = {
        "setup_s": statistics.median(setups),
        "wall_s": sum(times),
        "job_p50_s": statistics.median(times),
        "job_tail_s": tail,
    }
    probe = host_probe(probes)
    values = {name: seconds * PROBE_REF_S / probe for name, seconds in raw.items()}
    values["peak_rss_mb"] = max(e.rss_mb for e in runs)
    n = f"n={len(times)} jobs, each its median over its runs ({len(runs)} runs)"
    notes = {
        "setup_s": f"median of {len(setups)} set-ups",
        "wall_s": "the job list: sum of the job medians",
        "job_p50_s": n,
        "job_tail_s": f"p{pct:.0f} of {n}" + ("" if pct < 100 else f": the maximum, as n <= {2 * TAIL_BEYOND}"),
        "peak_rss_mb": "largest over the job processes",
    }
    for name, seconds in raw.items():
        notes[name] += f"; unscaled {seconds:.6g} s"
    return values, notes


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, list[str]]:
    """One benchmark run; returns the result object and the human-readable summary lines."""
    setups = []
    for _ in range(SETUP_REPEATS):
        elapsed, client, job_list = set_up(workload, seed)
        setups.append(elapsed)
    probes: list[float] = []
    if trace:
        pairs = measure_traced(client, job_list, seconds, seed)
        runs = [e for pair in pairs for e in pair]
        values, units = layers.metrics(pairs), layers.UNITS
        notes = {"init.import_share": "of the plain job median",
                 "lp_oracle.solve_lp_share": "of the plain wall time of the traced jobs",
                 "trace.overhead_s": f"traced minus plain, mean over {len(pairs)} pairs"}
    else:
        runs, probes = measure(client, job_list, seconds)
        (values, notes), units = end_to_end(setups, runs, probes), END_TO_END
    with open(client.run_dir / "jobs.jsonl", "w") as stream:
        for e in runs:
            stream.write(json.dumps({"job": e.job.id, "seconds": e.seconds, "rss_mb": e.rss_mb,
                                     "traced": bool(e.spans), "problems": e.problems}) + "\n")
        stream.writelines(json.dumps({"probe": seconds}) + "\n" for seconds in probes)
    failed = [e for e in runs if e.problems]
    gaps = [e.gap for e in runs if e.gap is not None]
    lines = [f"{workload} seed {seed}: {len(runs)} jobs, {len(failed)} failed, "
             f"fail_rate {len(failed) / len(runs):.4f}"]
    lines += [f"  {name:<30} {values[name]:>14.6g} {units[name]:<10} {notes.get(name, '')}" for name in units]
    if probes:
        lines.append(f"  {'probe':<30} {host_probe(probes):>14.6g} {'s':<10} mean of the middle half of "
                     f"{len(probes)} probes; the times above are scaled to a {PROBE_REF_S} s probe")
    if gaps and not trace:
        lines.append(f"  {'bracket_gap':<30} {statistics.fmean(gaps):>14.6g} {'ratio':<10} "
                     f"mean over {len(gaps)} LP jobs, at their largest m")
    lines += [f"  FAILED {e.job.id}: {'; '.join(e.problems)}" for e in failed]
    result = {
        "correct": not failed,
        "attempted": len(runs),
        "failed": len(failed),
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    return result, lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "elopt" / "__init__.py").is_file():
        print(f"no elopt sources under {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            results[name], lines = run_workload(name, args.seed, args.seconds, bool(args.trace))
            print("\n".join(lines), flush=True)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
