#!/usr/bin/env python3
"""The nntrav benchmark.

    python3 perfbench/run.py --workload hop --seed 0 --seconds 60 --trace 0

Run from the root of a source checkout; the program under test is the
``src/nntrav`` package of that checkout, never an installed copy.

``--trace 0`` is the untraced run: a closed loop with one client that runs
the workload's op list as ``python -m nntrav.cli`` subprocesses, the way a
user runs them (interpreter start included), pass after pass until
``--seconds`` are spent.  The op order rotates from pass to pass so host
drift hits every op alike.  It reports the end-to-end metrics.  The shared
host's own speed swings by up to half for stretches of seconds to minutes,
so after every op the run also times a fixed reference job
(reference_job.py) that never changes with nntrav.  The gated ``pass_rel``
is one op list in units of that job: for each op, the median over the run
of its wall time divided by the mean of the two reference jobs beside it,
summed over the op list (see NOTES.md).  The plain ``pass_s`` (median over
passes), per-op medians, sample counts, best times and tail percentiles are
printed beside it.

``--trace 1`` is the traced run.  It first fits the growth exponents
(ladders.py), then spends the rest of ``--seconds`` in rounds, at least
one.  Each round runs one untraced subprocess pass, one untraced in-process
pass (``nntrav.cli.main(argv)``) and one in-process pass with the layer
functions wrapped in spans (tracer.py).  It reports the per-layer metrics.

Every invocation's output is checked after its timed region: exit code,
semantic checks per op, byte-identical stdout and files across passes, and,
at the default seed, the reference digests in ``reference.json``.  The last
stdout line is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``.  ``--record-reference`` rewrites ``reference.json`` from one
pass of every workload at the default seed.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import shutil
import signal
import subprocess
import sys
import traceback
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median
from time import perf_counter

from ladders import LADDERS, growth_exponents
from tracer import LAYERS, TRACED_NAMES, Tracer, self_times, write_spans
from workloads import DEFAULT_SEED, WORKLOADS, Op, Outcome

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
REFERENCE = Path(__file__).with_name("reference.json")
REFERENCE_JOB = Path(__file__).with_name("reference_job.py")
SETUP_REPEATS, SETUP_MIN_S = 5, 2.0  # set up at least 5 times and for 2 s
PERCENTILES = (50, 75, 90, 95, 99, 99.9)

END_TO_END = (("setup_s", "s"), ("pass_rel", "ratio"), ("peak_rss_mb", "MB"))


def per_layer_metrics() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric the traced run reports."""
    out = []
    for name in TRACED_NAMES:
        out.append((f"{name}.calls", "count", "lower"))
        out.append((f"{name}.self_s", "s", "lower"))
    out += [(f"{layer}.self_s", "s", "lower") for layer in LAYERS]
    out += [
        ("cli.out_bytes", "bytes", "lower"),
        ("simulator.rounds", "count", "lower"),
        ("simulator.explore_ratio", "ratio", "higher"),
        ("games.steps", "count", "lower"),
        ("games.new_visit_ratio", "ratio", "higher"),
        ("trace.pass_s", "s", "lower"),
        ("trace.inproc_pass_s", "s", "lower"),
        ("trace.overhead_s", "s", "lower"),
        ("trace.spans", "count", "lower"),
    ]
    for ladder in LADDERS:
        out.append((f"growth.{ladder}.steps_exp", "exponent", "lower"))
        out.append((f"growth.{ladder}.time_exp", "exponent", "lower"))
    return out


# --- invoking the program --------------------------------------------------------


@dataclass
class Sample:
    """One timed invocation of one op, and what its checks found."""

    op: Op
    kind: str  # "cli" (subprocess), "inproc" or "traced"
    wall: float
    rc: int
    maxrss_kb: int
    digests: tuple[tuple[str, str], ...]
    out_bytes: int
    errors: list[str] = field(default_factory=list)


class Subprocess:
    """Runs ``python -m nntrav.cli`` as a child process in ``cwd``; records its peak RSS."""

    def __init__(self, cwd: Path) -> None:
        self.cwd = cwd
        # only the checkout's sources, and no seed leaking in from the environment
        self.env = {k: v for k, v in os.environ.items() if k != "NNTRAV_SEED"}
        self.env["PYTHONPATH"] = str(SRC)
        self.last_maxrss_kb = 0

    def __call__(self, argv, stdout_path: Path) -> int:
        with open(stdout_path, "wb") as out:
            proc = subprocess.Popen([sys.executable, "-m", "nntrav.cli", *argv], stdout=out,
                                    stderr=subprocess.DEVNULL, env=self.env, cwd=self.cwd)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.last_maxrss_kb = usage.ru_maxrss
        return proc.returncode


class InProcess:
    """Runs ``nntrav.cli.main(argv)`` in this process, in ``cwd``, with stdout sent to a file.

    ``main`` is looked up on every call, so a traced binding is picked up.
    """

    def __init__(self, cli, cwd: Path) -> None:
        self.cli = cli
        self.cwd = cwd
        self.last_maxrss_kb = 0

    def __call__(self, argv, stdout_path: Path) -> int:
        home = os.getcwd()
        with open(stdout_path, "w", encoding="utf-8") as out, \
                contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            os.chdir(self.cwd)
            try:
                return self.cli.main(list(argv))
            except SystemExit as err:  # argparse rejects its arguments this way
                return err.code if isinstance(err.code, int) else 1
            except Exception:  # a crash is a failed op, not a failed benchmark run
                traceback.print_exc(file=sys.__stderr__)
                return 1
            finally:
                os.chdir(home)


def reference_job(runner: Subprocess) -> float:
    """Time one run of the fixed reference job, started the way the ops are."""
    t0 = perf_counter()
    proc = subprocess.run([sys.executable, str(REFERENCE_JOB)], stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, env=runner.env, cwd=runner.cwd)
    wall = perf_counter() - t0
    if proc.returncode != 0 or not proc.stdout.strip().isdigit():
        raise RuntimeError(f"the reference job failed with exit code {proc.returncode}")
    return wall


def import_nntrav():
    """Import the checkout's nntrav, refusing any other copy on the path."""
    sys.path.insert(0, str(SRC))
    import nntrav.cli
    import nntrav.games
    if Path(nntrav.__file__).resolve().parent != (SRC / "nntrav").resolve():
        raise RuntimeError(f"imported nntrav from {nntrav.__file__}, not from {SRC}")
    return nntrav


def invoke(runner, op: Op, kind: str, work: Path, kept: dict) -> Sample:
    """Time one op, then read back and digest its outputs (outside the timed region)."""
    stdout_path = work / "out" / f"{op.label}.{kind}.stdout"
    for p in op.outputs:  # a file the op fails to write must not pass as written
        (work / p).unlink(missing_ok=True)
    t0 = perf_counter()
    rc = runner(op.argv, stdout_path)
    wall = perf_counter() - t0
    stdout = stdout_path.read_bytes()
    files = {Path(p).name: (work / p).read_bytes() for p in op.outputs if (work / p).exists()}
    digests = (("stdout", hashlib.sha256(stdout).hexdigest()),) + tuple(
        (name, hashlib.sha256(data).hexdigest()) for name, data in sorted(files.items()))
    kept.setdefault((op.label, digests), Outcome(stdout, files))
    return Sample(op, kind, wall, rc, runner.last_maxrss_kb, digests,
                  len(stdout) + sum(map(len, files.values())))


def rotated(ops: list[Op], turn: int) -> list[Op]:
    k = turn % len(ops)
    return ops[k:] + ops[:k]


# --- checking ----------------------------------------------------------------------


def verify(samples: list[Sample], kept: dict, reference: dict | None) -> None:
    """Attach to each sample every reason its op failed."""
    verdicts: dict = {}  # each distinct output is checked once
    first: dict[str, tuple] = {}
    for s in samples:
        if s.rc != 0:
            s.errors.append(f"exit code {s.rc}")
        key = (s.op.label, s.digests)
        if key not in verdicts:
            try:
                verdicts[key] = s.op.check(kept[key]) if s.rc == 0 else None
            except (KeyError, TypeError, ValueError, IndexError) as err:
                verdicts[key] = f"unreadable output: {err!r}"
        verdict = verdicts[key]
        if verdict:
            s.errors.append(verdict)
        if first.setdefault(s.op.label, s.digests) != s.digests:
            s.errors.append("outputs differ from the first pass")
        if reference is not None and reference.get(s.op.label) != dict(s.digests):
            s.errors.append("outputs differ from the reference digests")


def load_reference(workload: str, seed: int) -> dict | None:
    if seed != DEFAULT_SEED:
        return None
    return json.loads(REFERENCE.read_text(encoding="utf-8"))["workloads"][workload]


# --- statistics --------------------------------------------------------------------


def tail(samples: list[float]) -> tuple[float, float] | None:
    """(p, value) for the highest listed percentile with at least ten samples beyond it."""
    ordered = sorted(samples)
    best = None
    for p in PERCENTILES:
        rank = max(1, math.ceil(p / 100 * len(ordered)))
        if len(ordered) - rank >= 10:
            best = (p, ordered[rank - 1])
    return best


def describe(name: str, samples: list[float], unit: str) -> str:
    line = (f"{name:<16} {median(samples):10.4f} {unit:<3} median of n={len(samples)}; "
            f"best {min(samples):.4f}")
    t = tail(samples)
    return line + (f", p{t[0]:g} {t[1]:.4f}" if t else ", no percentile has 10 samples beyond it")


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


# --- the two runs ------------------------------------------------------------------


def measure(seconds: float, one_pass) -> list[float]:
    """Run passes until the next one would end past ``seconds``; at least one."""
    walls: list[float] = []
    start = perf_counter()
    while True:
        walls.append(one_pass(len(walls)))
        if perf_counter() - start + median(walls) > seconds:
            return walls


def untraced(workload: str, seed: int, seconds: float, work: Path) -> dict:
    runner = Subprocess(work)
    setups: list[float] = []
    while len(setups) < SETUP_REPEATS or sum(setups) < SETUP_MIN_S:
        shutil.rmtree(work, ignore_errors=True)
        (work / "out").mkdir(parents=True)
        t0 = perf_counter()
        ops = WORKLOADS[workload](work, seed, runner)
        setups.append(perf_counter() - t0)

    samples: list[Sample] = []
    kept: dict = {}
    passes: list[float] = []
    jobs = [reference_job(runner)]  # jobs[k] runs just before samples[k], jobs[k + 1] just after

    def one_pass(turn: int) -> float:
        done = []
        for op in rotated(ops, seed + turn):
            done.append(invoke(runner, op, "cli", work, kept))
            jobs.append(reference_job(runner))
        samples.extend(done)
        passes.append(sum(s.wall for s in done))
        return passes[-1] + sum(jobs[-len(done):])

    measure(seconds, one_pass)
    verify(samples, kept, load_reference(workload, seed))
    local: dict[str, list[float]] = defaultdict(list)
    for k, s in enumerate(samples):
        local[s.op.label].append(2 * s.wall / (jobs[k] + jobs[k + 1]))
    pass_rel = sum(median(v) for v in local.values())

    by_op: dict[str, list[float]] = defaultdict(list)
    for s in samples:
        by_op[s.op.metric].append(s.wall)
    failed = sum(1 for s in samples if s.errors)
    print(f"nntrav benchmark, workload {workload}, seed {seed}: {len(passes)} passes, "
          "closed loop, one client")
    print(f"{'setup_s':<16} {median(setups):10.4f} s   median of n={len(setups)}")
    print(describe("pass_s", passes, "s"))
    print(describe("reference_s", jobs, "s"))
    print(f"{'pass_rel':<16} {pass_rel:10.4f} ratio sum over the ops of the median "
          "wall / mean of the reference jobs beside it")
    for name, walls in by_op.items():
        print(describe(f"{name}_s", walls, "s"))
    peak = max(s.maxrss_kb for s in samples) / 1024
    print(f"{'peak_rss_mb':<16} {peak:10.4f} MB  largest child ru_maxrss")
    print(f"{'error_rate':<16} {failed / len(samples):10.4f}     {failed} of {len(samples)} ops")
    report_errors(samples)
    values = {
        "setup_s": median(setups),
        "pass_rel": pass_rel,
        "peak_rss_mb": peak,
    }
    return {
        "correct": failed == 0,
        "attempted": len(samples),
        "failed": failed,
        "metrics": {name: metric(values[name], unit) for name, unit in END_TO_END},
    }


def traced(workload: str, seed: int, seconds: float, work: Path) -> dict:
    shutil.rmtree(work, ignore_errors=True)
    (work / "out").mkdir(parents=True)
    cli_runner = Subprocess(work)
    ops = WORKLOADS[workload](work, seed, cli_runner)
    nntrav = import_nntrav()
    inproc = InProcess(nntrav.cli, work)
    tracer = Tracer()

    samples: list[Sample] = []
    kept: dict = {}
    walls: dict[str, list[float]] = defaultdict(list)
    span_passes: list[list] = []

    def one_round(turn: int) -> float:
        order = rotated(ops, seed + turn)
        for kind, runner in (("cli", cli_runner), ("inproc", inproc)):
            done = [invoke(runner, op, kind, work, kept) for op in order]
            walls[kind].append(sum(s.wall for s in done))
            samples.extend(done)
        tracer.install()
        try:
            done = [tracer.wrap(f"op.{op.label}", invoke)(inproc, op, "traced", work, kept)
                    for op in order]
        finally:
            tracer.uninstall()
        span_passes.append(tracer.take())
        walls["traced"].append(sum(s.wall for s in done))
        samples.extend(done)
        return walls["cli"][-1] + walls["inproc"][-1] + walls["traced"][-1]

    t0 = perf_counter()
    (work / "ladder").mkdir()
    growth = growth_exponents(InProcess(nntrav.cli, work / "ladder"),
                              nntrav.games.growth_fit, work / "ladder")
    measure(seconds - (perf_counter() - t0), one_round)  # the ladders count against --seconds
    verify(samples, kept, load_reference(workload, seed))
    write_spans(work / "spans.jsonl", span_passes)

    per_pass = [self_times(spans) for spans in span_passes]
    counts = [calls for _, calls in per_pass]
    if any(c != counts[0] for c in counts):
        samples[-1].errors.append("call counts differ between traced passes")
    values: dict[str, float] = {}
    for name in TRACED_NAMES:
        values[f"{name}.calls"] = counts[0].get(name, 0)
        values[f"{name}.self_s"] = median(st.get(name, 0.0) for st, _ in per_pass)
    for layer, attrs in LAYERS.items():
        values[f"{layer}.self_s"] = median(
            sum(st.get(f"{layer}.{a}", 0.0) for a in attrs) for st, _ in per_pass)

    summaries = {}  # label -> stdout report of a passing simulate or duel
    for s in samples:
        if not s.errors and s.op.label.startswith(("simulate", "duel-")):
            summaries.setdefault(s.op.label, json.loads(kept[(s.op.label, s.digests)].stdout))
    sim = [r for label, r in summaries.items() if label == "simulate"]
    duels = [r for label, r in summaries.items() if label != "simulate"]
    rounds = sum(r["iterations"] for r in sim)
    steps = sum(r["steps"] for r in duels)
    cli_bytes = sum(s.out_bytes for s in samples if s.kind == "cli")
    values["cli.out_bytes"] = cli_bytes / len(walls["cli"])
    values["simulator.rounds"] = rounds
    values["simulator.explore_ratio"] = (sum(r["explored"] - 1 for r in sim) / rounds
                                         if rounds else 0.0)
    values["games.steps"] = steps
    values["games.new_visit_ratio"] = (sum(r["visited"] - 1 for r in duels) / steps
                                       if steps else 0.0)
    values["trace.pass_s"] = median(walls["traced"])
    values["trace.inproc_pass_s"] = median(walls["inproc"])
    values["trace.overhead_s"] = values["trace.pass_s"] - median(walls["cli"])
    values["trace.spans"] = len(span_passes[0])
    values.update(growth)

    failed = sum(1 for s in samples if s.errors)
    print(f"nntrav benchmark, traced run, workload {workload}, seed {seed}: "
          f"{len(span_passes)} rounds; spans in {work / 'spans.jsonl'}")
    report_errors(samples)
    return {
        "correct": failed == 0,
        "attempted": len(samples),
        "failed": failed,
        "metrics": {name: metric(values[name], unit) for name, unit, _ in per_layer_metrics()},
    }


def report_errors(samples: list[Sample]) -> None:
    seen = set()
    for s in samples:
        for err in s.errors:
            if (s.op.label, err) not in seen:
                seen.add((s.op.label, err))
                print(f"FAILED {s.op.label} ({s.kind}): {err}")


def record_reference(work: Path) -> None:
    """Rewrite reference.json from one pass of every workload at the default seed."""
    doc = {"seed": DEFAULT_SEED, "workloads": {}}
    for name, setup in WORKLOADS.items():
        wdir = work / name
        shutil.rmtree(wdir, ignore_errors=True)
        (wdir / "out").mkdir(parents=True)
        runner = Subprocess(wdir)
        kept: dict = {}
        ops = setup(wdir, DEFAULT_SEED, runner)
        samples = [invoke(runner, op, "cli", wdir, kept) for op in ops]
        verify(samples, kept, None)
        report_errors(samples)
        if any(s.errors for s in samples):
            raise SystemExit(f"not recording: {name} has failing ops")
        doc["workloads"][name] = {s.op.label: dict(s.digests) for s in samples}
    REFERENCE.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true")
    args = parser.parse_args(argv)
    if not (SRC / "nntrav" / "cli.py").is_file():
        print(f"error: no nntrav sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    if args.record_reference:
        record_reference(WORK / "reference")
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    # a terminated run still kills and reaps the child it is waiting for
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    work = WORK / args.workload
    run = traced if args.trace else untraced
    result = run(args.workload, args.seed, args.seconds, work)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
