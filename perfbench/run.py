"""Benchmark runner for cantorlike. Standard library only.

Run from the root of a checkout:

    python3 perfbench/run.py --workload stage-dump --seed 1 --seconds 20 --trace 0

With ``--trace 0`` every command runs as its own ``python3 -m cantorlike.cli``
subprocess, one at a time (a closed loop with one client), and the run reports
the end-to-end metrics. With ``--trace 1`` the same commands run in this
process through ``cantorlike.cli.main(argv)``, alternating an untraced and a
traced pass, and the run reports the per-layer metrics. Every output is
checked; the last line of stdout is one JSON object
``{"correct", "attempted", "failed", "metrics"}``. A human summary goes to
stderr and the spans of a traced run to ``.bench_build/``.

``python3 perfbench/run.py --record`` re-records expected.json from the
program as it is.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import statistics
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from time import perf_counter, process_time

import tracing
import workloads
from workloads import Command

HERE = Path(__file__).resolve().parent
SETUP_LAUNCHES = 5  # --help launches before the first pass; one more follows each pass
MIN_PASSES = 3
REFERENCE_S = 0.02  # nominal seconds of one reference_work() slice; see README.md
REFERENCE_SHARE = 0.1  # reference slices taken after a command, as a share of its wall time
HELP = Command("cli", ("--help",), lambda code, out: code == 0 and out.startswith(b"usage: cantorlike"))
END_TO_END = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}


@dataclass
class Outcome:
    code: int
    digest: str
    data: bytes | None
    wall: float
    cpu: float = 0.0
    rss_mb: float = 0.0


class Tally:
    """Commands attempted and failed; a failure is reported and never raised."""

    def __init__(self, expected: dict):
        self.expected = expected
        self.attempted = 0
        self.failed = 0

    def record(self, cmd: Command, out: Outcome) -> None:
        self.attempted += 1
        if not workloads.check(cmd, out.code, out.digest, out.data, self.expected):
            self.failed += 1
            print(f"FAILED (exit {out.code}): {cmd.key[:200]}", file=sys.stderr)


# --- subprocess runs -----------------------------------------------------------------

def launch(cmd: Command, env: dict) -> Outcome:
    """Run one command as a child process. Its stdout is hashed as it streams
    in, and kept only when an oracle needs it. Peak RSS and CPU time come from
    os.wait4 on this child alone: RUSAGE_CHILDREN would carry the high-water
    mark of earlier, bigger children into later ones."""
    if cmd.entry == "cli":
        argv = [sys.executable, "-m", "cantorlike.cli", *cmd.args]
    else:
        argv = [sys.executable, str(HERE / "session.py"), *cmd.args]
    keep = cmd.oracle is not None
    h, chunks = hashlib.sha256(), []
    t0 = perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, env=env)
    try:
        while chunk := proc.stdout.read(1 << 16):
            h.update(chunk)
            if keep:
                chunks.append(chunk)
    finally:
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    wall = perf_counter() - t0
    return Outcome(proc.returncode, h.hexdigest(), b"".join(chunks) if keep else None, wall,
                   usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024)


def reference_work() -> None:
    """A fixed slice of pure-Python work like the program's own: Fraction and
    big-integer arithmetic, and small-object allocation."""
    x = Fraction(1, 3)
    for i in range(1, 1500):
        x = (x * 7 + Fraction(1, i)) / 3
    table = {}
    for i in range(20000):
        table[i] = i * i


@dataclass
class Reference:
    """Wall and CPU seconds of the reference slices taken next to some commands."""

    wall: float = 0.0
    cpu: float = 0.0
    slices: int = 0

    def take(self) -> None:
        w0, c0 = perf_counter(), process_time()
        reference_work()
        self.wall += perf_counter() - w0
        self.cpu += process_time() - c0
        self.slices += 1

    def scale(self, seconds: float, cpu: bool = False) -> float:
        """``seconds`` at the nominal speed: measured * REFERENCE_S / mean slice."""
        return seconds * self.slices * REFERENCE_S / (self.cpu if cpu else self.wall)


def calibrated(cmd: Command, env: dict, ref: Reference) -> Outcome:
    """Run ``cmd`` between reference slices: one before it, and after it as
    many as bring the slices up to REFERENCE_SHARE of the command's wall time."""
    ref.take()
    start = ref.wall
    out = launch(cmd, env)
    while ref.wall - start < REFERENCE_SHARE * out.wall:
        ref.take()
    return out


def timed_run(cmds: list[Command], seconds: float, env: dict, tally: Tally) -> dict:
    """Closed-loop passes over ``cmds`` for ``seconds``; medians of the passes.

    Times are normalized to the machine's speed at the moment they are taken:
    reference slices run around every command (see ``calibrated``), and each
    time is reported as measured seconds * REFERENCE_S / (mean seconds of the
    slices taken in the same pass). On a shared host whose speed swings by
    1.6x over tens of seconds this keeps run-to-run spread near 5% where raw
    seconds spread by 10-25%. Raw seconds are printed on stderr.
    """
    # The reference slices and the children must share one CPU, or the slices
    # would track the speed of a CPU the program is not running on.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    launch(HELP, env)  # untimed: fills the bytecode cache and the page cache
    raw = {"raw_wall_s": [], "raw_cpu_s": [], "raw_setup_s": []}
    setup = []

    def setup_sample() -> None:
        ref = Reference()
        out = calibrated(HELP, env, ref)
        tally.record(HELP, out)
        setup.append(ref.scale(out.wall))
        raw["raw_setup_s"].append(out.wall)

    for _ in range(SETUP_LAUNCHES):
        setup_sample()
    walls, cpus, rsss = [], [], []
    start = perf_counter()
    while len(walls) < MIN_PASSES or perf_counter() - start < seconds:
        wall = cpu = rss = 0.0
        ref = Reference()
        for cmd in cmds:
            out = calibrated(cmd, env, ref)
            tally.record(cmd, out)
            wall += out.wall
            cpu += out.cpu
            rss = max(rss, out.rss_mb)
        walls.append(ref.scale(wall))
        cpus.append(ref.scale(cpu, cpu=True))
        rsss.append(rss)
        raw["raw_wall_s"].append(wall)
        raw["raw_cpu_s"].append(cpu)
        setup_sample()
    samples = {"wall_s": walls, "cpu_s": cpus, "peak_rss_mb": rsss, "setup_s": setup}
    summarize({**samples, **raw}, {**END_TO_END, **{name: "s" for name in raw}})
    return {name: {"value": statistics.median(v), "unit": END_TO_END[name]} for name, v in samples.items()}


# --- in-process runs --------------------------------------------------------------------

class HashSink(io.RawIOBase):
    """A binary stdout that hashes and counts what is written, and keeps it on request."""

    def __init__(self, keep: bool):
        self.hash = hashlib.sha256()
        self.size = 0
        self.chunks: list[bytes] | None = [] if keep else None

    def writable(self) -> bool:
        return True

    def write(self, b) -> int:
        self.hash.update(b)
        self.size += len(b)
        if self.chunks is not None:
            self.chunks.append(bytes(b))
        return len(b)


def call(cmd: Command) -> tuple[Outcome, int]:
    """Run one command in this process with stdout captured; returns the
    outcome and the number of bytes written to stdout."""
    import session  # imports cantorlike, so only once src/ is on sys.path
    from cantorlike import cli

    entry = cli.main if cmd.entry == "cli" else session.main
    sink = HashSink(cmd.oracle is not None)
    stdout = io.TextIOWrapper(io.BufferedWriter(sink, 1 << 16), encoding="utf-8", newline="\n")
    t0 = perf_counter()
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
            code = entry(list(cmd.args))
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
    except Exception:  # the subprocess would die with a traceback and exit 1
        code = 1
    finally:
        stdout.flush()
    wall = perf_counter() - t0
    data = b"".join(sink.chunks) if sink.chunks is not None else None
    return Outcome(code or 0, sink.hash.hexdigest(), data, wall), sink.size


def inprocess_pass(cmds: list[Command], tally: Tally) -> tuple[float, int]:
    wall, size = 0.0, 0
    for cmd in cmds:
        out, n = call(cmd)
        tally.record(cmd, out)
        wall += out.wall
        if cmd.entry == "cli":
            size += n
    return wall, size


def traced_run(cmds: list[Command], seconds: float, tally: Tally, spans_path: Path) -> dict:
    """Pairs of one untraced and one traced in-process pass for ``seconds``;
    per-layer metrics are medians over the traced passes."""
    import session  # noqa: F401  (loads cantorlike before timing)

    untraced, traced, per_pass, all_spans = [], [], [], []
    start = perf_counter()
    while not traced or perf_counter() - start < seconds:
        untraced.append(inprocess_pass(cmds, tally)[0])
        tracer = tracing.Tracer()
        with tracing.installed(tracer):
            wall, size = inprocess_pass(cmds, tally)
        traced.append(wall)
        metrics = tracing.layer_metrics(tracer, size)
        self_sum = sum(tracing.self_times(tracer.spans))
        if self_sum > wall:
            tally.failed += 1
            print(f"FAILED: self times sum to {self_sum:.6f} s, over the traced wall {wall:.6f} s",
                  file=sys.stderr)
        per_pass.append(metrics)
        all_spans.append([[s.name, s.start, s.end, s.parent] for s in tracer.spans])
    spans_path.write_text(json.dumps(all_spans))
    samples = {name: [m[name] for m in per_pass] for name in per_pass[0]}
    samples["trace.overhead_ratio"] = [t / u for t, u in zip(traced, untraced)]
    units = {name: unit for name, (unit, _) in tracing.LAYER_METRICS.items()}
    summarize(samples, units)
    return {name: {"value": statistics.median(samples[name]), "unit": units[name]}
            for name in tracing.LAYER_METRICS}


# --- reporting ---------------------------------------------------------------------------

def summarize(samples: dict, units: dict) -> None:
    """Median, quartiles and sample count of every metric, on stderr."""
    for name, values in samples.items():
        q = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
        print(f"{name:40s} median {q[1]:.6g} {units[name]}  (q1 {q[0]:.6g}, q3 {q[2]:.6g}, n={len(values)})",
              file=sys.stderr)


def record(env: dict) -> None:
    expected = {}
    for cmd in workloads.deterministic_commands():
        out = launch(cmd, env)
        expected[cmd.key] = {"exit": out.code, "sha256": out.digest}
        print(f"{out.wall:7.2f} s  {cmd.key}", file=sys.stderr)
    workloads.EXPECTED_PATH.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true", help="re-record expected.json and exit")
    args = parser.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "cantorlike" / "cli.py").is_file():
        print(f"no cantorlike source under {src}; run from the root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(src), env.get("PYTHONPATH"))))
    if args.record:
        record(env)
        return 0
    if args.workload is None:
        parser.error("--workload is required")

    scratch = root / ".bench_build"
    scratch.mkdir(exist_ok=True)
    cmds = workloads.build(args.workload, args.seed, scratch)
    tally = Tally(workloads.load_expected())
    if args.trace:
        metrics = traced_run(cmds, args.seconds, tally, scratch / f"spans-{args.workload}-{args.seed}.json")
    else:
        metrics = timed_run(cmds, args.seconds, env, tally)
    print(f"{args.workload}: {tally.failed} of {tally.attempted} commands failed", file=sys.stderr)
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
