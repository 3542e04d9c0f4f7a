#!/usr/bin/env python3
"""Benchmark of the ``vincular`` command line tool.

Run from the root of a checkout (nothing needs building; the program is
imported from ``src``):

    python3 perfbench/run.py --workload tree-generate --seed 1 --seconds 20 --trace 0

A workload is a fixed list of CLI commands, one *pass*.  The benchmark is
a closed loop with one client: it runs passes back to back, each command as
its own ``python -m vincular.cli`` subprocess that runs to completion
before the next one starts, and starts no pass that would end after
``--seconds``.  The seed only shuffles the order of the commands within
each pass; the program sees nothing but its argv.

Commands are launched by ``spawn.py``, one small process per run, which
streams each command's stdout into a sha256 and reports its ``wait4``
rusage.  The sha256 is compared with ``references.json``; a nonzero exit or
a mismatch counts the command as failed.

All commands, pool workers included, run on one CPU, where ``spawn.py``
times a fixed probe loop every 10 ms while they run.  Times are reported
in *reference seconds*: each stretch of a command's wall time scaled by how
fast the probe ran on that CPU just then, relative to ``PROBE_REF_NS``.
On a shared host a core's speed swings by up to ~1.6x within seconds, and
the scaling keeps that swing out of the figures.  Raw times stay in the run
record.

``--trace 0`` reports the end-to-end metrics:

  setup_s      median time of ``vincular count --n 0``: interpreter start,
               imports and argparse; sampled five times before every pass
  wall_s       time of one pass: the sum over its commands of each
               command's median time across passes
  cpu_s        the same for user+sys CPU time from ``os.wait4``, which
               includes the pool workers each command reaps, scaled by the
               command's mean speed
  peak_rss_mb  median over passes of the largest child ``ru_maxrss``

``--trace 1`` runs the same commands in-process through
``vincular.cli.main`` with the public functions of every module wrapped
(see ``tracing.py``) and reports the per-layer metrics, in raw seconds.

The line before the result is a run record: seed, command order, git sha,
Python version, cpu count, load average at start and end, the probe's
times, sample counts, raw and reference per-pass times and the error rate.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent
REFERENCES = json.loads((HERE / "references.json").read_text())["commands"]

SETUP_ARGV = ("count", "--n", "0")
SETUPS_PER_PASS = 5

# Why these commands: see the workload notes in BENCHMARK.json.
#  tree-generate  eco/blocks/perms/gentree with megabytes of stdout; the
#                 brute oracle does no work.
#  brute-oracle   brute plus the generic pattern search over three dash
#                 shapes; eco is never called.
#  verify-pool    the only process-pool path, and the only user of
#                 eco.reduce, verify_labelling and label_series.
#  recurrence     counting and cli only: the bypass workload for every tree
#                 or oracle change.
WORKLOADS: dict[str, list[tuple[str, ...]]] = {
    "tree-generate": [
        ("generate", "--n", "9"),
        ("generate", "--n", "9", "--format", "json"),
    ],
    "brute-oracle": [
        ("count", "--method", "brute", "--n", "8"),
        ("count", "--method", "brute", "--n", "8", "--pattern", "1-23-4"),
        ("count", "--method", "brute", "--n", "8", "--pattern", "31-4-2"),
        ("triangle", "--which", "census", "--n", "8"),
    ],
    "verify-pool": [
        ("verify", "--suite", "all", "--n", "8", "--threads", "2", "--json"),
    ],
    "recurrence": [
        ("count", "--n", "400"),
        ("count", "--pattern", "31-4-2", "--n", "100"),
        ("triangle", "--which", "v", "--n", "300"),
        ("count", "--method", "cfrac", "--n", "40"),
        ("verify", "--suite", "pde", "--n", "100"),
    ],
}

# A run must end within 180 s; no command may outlive this.
HARD_LIMIT_S = 170.0
# Probes of count --n 0 must report one RSS floor whatever ran before them.
RSS_FLOOR_TOLERANCE_KB = 1024


@dataclasses.dataclass
class Outcome:
    argv: tuple[str, ...]
    code: int
    sha256: str
    stdout_bytes: int
    head: bytes
    wall_s: float
    cpu_s: float = 0.0
    maxrss_kb: int = 0
    ref_wall_s: float = 0.0
    probes: int = 0
    probe_ns: int = 0
    failure: str | None = None


def check(outcome: Outcome) -> Outcome:
    """Fill in ``outcome.failure`` from its exit code and the reference."""
    key = " ".join(outcome.argv)
    ref = REFERENCES.get(key)
    if outcome.code != 0:
        outcome.failure = f"exit status {outcome.code}"
    elif ref is None:
        outcome.failure = "no reference output"
    elif "verify_ok" in ref:
        try:
            report = json.loads(outcome.head)
            ok = report["ok"] is True and all(
                report["suites"][suite]["ok"] is True for suite in ref["verify_ok"]
            )
        except (ValueError, KeyError, TypeError):
            ok = False
        if not ok:
            outcome.failure = "verify report is not ok"
    else:
        if "lines" in ref:
            expected = hashlib.sha256("".join(f"{v}\n" for v in ref["lines"]).encode()).hexdigest()
        else:
            expected = ref["sha256"]
        if outcome.sha256 != expected:
            outcome.failure = f"stdout sha256 {outcome.sha256[:12]} != reference {expected[:12]}"
    return outcome


class Spawner:
    """Runs CLI commands through ``spawn.py``, a separate small process, so
    that no child inherits this process's RSS in its ``ru_maxrss``."""

    def __init__(self, env: dict[str, str]) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, "-I", "-S", str(HERE / "spawn.py")],
            cwd=ROOT,
            env=env,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )

    def run(self, argv: tuple[str, ...], deadline: float) -> Outcome:
        timeout = max(deadline - time.perf_counter(), 0.0)
        self.proc.stdin.write("\t".join((repr(timeout), *argv)) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("the spawner exited")
        code, wall, cpu, maxrss, size, sha, timed_out, ref_wall, probes, probe_ns, head = (
            line.rstrip("\n").split(" ")
        )
        outcome = Outcome(
            argv, int(code), sha, int(size), bytes.fromhex(head), float(wall), float(cpu),
            int(maxrss), float(ref_wall), int(probes), int(probe_ns),
        )
        check(outcome)
        if timed_out == "1":
            outcome.failure = "killed at the run's time limit"
        return outcome

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait(timeout=30)
        self.proc.stdout.close()


def git_sha(root: Path) -> str | None:
    """Commit of the checkout, read from .git without running git."""
    git = root / ".git"
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
    return None


def loadavg() -> list[float] | None:
    try:
        return [float(x) for x in Path("/proc/loadavg").read_text().split()[:3]]
    except OSError:
        return None


def summary(values: list[float]) -> dict[str, float]:
    return {"median": statistics.median(values), "min": min(values), "max": max(values)}


def metric(value: float, unit: str) -> dict[str, object]:
    return {"value": value, "unit": unit}


def median_pass(passes: list[list[Outcome]], value) -> float:
    """Sum over a pass's commands of each command's median across passes."""
    per_command: dict[tuple[str, ...], list[float]] = {}
    for outcome in (o for p in passes for o in p):
        per_command.setdefault(outcome.argv, []).append(value(outcome))
    return sum(statistics.median(v) for v in per_command.values())


def ref_cpu_s(outcome: Outcome) -> float:
    """CPU time scaled to the reference core by the command's mean speed."""
    return outcome.cpu_s * outcome.ref_wall_s / outcome.wall_s


def untraced(commands, rng, seconds, spawner, deadline, record) -> tuple[list[Outcome], dict]:
    spawner.run(SETUP_ARGV, deadline)  # warm the bytecode and page caches
    setups: list[Outcome] = []
    passes: list[list[Outcome]] = []
    start = time.perf_counter()
    while True:
        pass_start = time.perf_counter()
        setups.extend(spawner.run(SETUP_ARGV, deadline) for _ in range(SETUPS_PER_PASS))
        order = list(commands)
        rng.shuffle(order)
        record["orders"].append([" ".join(a) for a in order])
        passes.append([spawner.run(argv, deadline) for argv in order])
        now = time.perf_counter()
        # Stop before a pass that would overrun --seconds.
        if now + (now - pass_start) - start > seconds or now > deadline - 30:
            break
    setups.append(spawner.run(SETUP_ARGV, deadline))

    floors = [s.maxrss_kb for s in setups]
    if max(floors) - min(floors) > RSS_FLOOR_TOLERANCE_KB:
        sys.exit(f"RSS floor of count --n 0 moved between samples: {floors} KB")
    walls = [sum(o.wall_s for o in p) for p in passes]
    ref_walls = [sum(o.ref_wall_s for o in p) for p in passes]
    peaks = [max(o.maxrss_kb for o in p) / 1024 for p in passes]
    everything = setups + [o for p in passes for o in p]
    record.update(
        passes=len(passes),
        setup_samples=len(setups),
        pass_wall_s=walls,
        pass_ref_wall_s=ref_walls,
        wall_s_max=max(ref_walls),
        pass_cpu_s=[sum(o.cpu_s for o in p) for p in passes],
        pass_peak_rss_mb=peaks,
        setup_rss_floor_kb=[min(floors), max(floors)],
        raw_wall_s=median_pass(passes, lambda o: o.wall_s),
        raw_setup_s=statistics.median(s.wall_s for s in setups),
        probe_ns=summary([o.probe_ns for o in everything]),
        probes=sum(o.probes for o in everything),
    )
    metrics = {
        "setup_s": metric(statistics.median(s.ref_wall_s for s in setups), "s"),
        "wall_s": metric(median_pass(passes, lambda o: o.ref_wall_s), "s"),
        "cpu_s": metric(median_pass(passes, ref_cpu_s), "s"),
        "peak_rss_mb": metric(statistics.median(peaks), "MB"),
    }
    return everything, metrics


def traced(commands, rng, seconds, spawner, deadline, record) -> tuple[list[Outcome], dict]:
    order = list(commands)
    rng.shuffle(order)
    record["orders"].append([" ".join(a) for a in order])
    # One untraced subprocess pass gives the stdout the in-process runs must match.
    outcomes = [spawner.run(argv, deadline) for argv in order]
    reference = {o.argv: o.sha256 for o in outcomes}

    sys.path.insert(0, str(HERE))
    import tracing

    runner = tracing.Runner(SRC)
    plain_walls: list[float] = []
    traced_walls: list[float] = []
    per_pass: list[dict[str, tuple[float, str]]] = []
    start = time.perf_counter()
    while True:
        pass_start = time.perf_counter()
        order = list(commands)
        rng.shuffle(order)
        record["orders"].append([" ".join(a) for a in order])
        for walls, trace in ((plain_walls, False), (traced_walls, True)):
            t0 = time.perf_counter()
            results = runner.run_pass(order, trace)
            walls.append(time.perf_counter() - t0)
            for argv, (code, sha, size, head) in zip(order, results):
                outcome = check(Outcome(argv, code, sha, size, head, 0.0))
                if outcome.failure is None and sha != reference[argv]:
                    outcome.failure = "in-process stdout differs from the subprocess run"
                outcomes.append(outcome)
        per_pass.append(runner.layer_metrics())
        now = time.perf_counter()
        # Counts must be seen to repeat, so at least two passes; otherwise
        # stop before a pass that would overrun --seconds.
        overrun = now + (now - pass_start) - start > seconds
        if (overrun and len(per_pass) >= 2) or now > deadline - 60:
            break

    metrics = {}
    for name, (value, unit) in per_pass[0].items():
        values = [p[name][0] for p in per_pass]
        if unit in ("count", "bytes"):
            if len(set(values)) != 1:
                sys.exit(f"{name} did not repeat exactly across traced passes: {values}")
            metrics[name] = metric(value, unit)
        else:
            metrics[name] = metric(statistics.median(values), unit)
    metrics["trace.overhead_ratio"] = metric(
        statistics.median(traced_walls) / statistics.median(plain_walls), "ratio"
    )
    record.update(
        passes=len(per_pass),
        pass_wall_s_untraced=plain_walls,
        pass_wall_s_traced=traced_walls,
        patched_bindings=runner.patched,
    )
    return outcomes, metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "vincular" / "cli.py").is_file():
        print(f"error: no vincular sources under {SRC}", file=sys.stderr)
        return 2

    deadline = time.perf_counter() + HARD_LIMIT_S
    env = dict(os.environ, PYTHONPATH=str(SRC))
    rng = random.Random(args.seed)
    record: dict[str, object] = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "git_sha": git_sha(ROOT),
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "loadavg_start": loadavg(),
        "orders": [],
    }
    measure = traced if args.trace else untraced
    spawner = Spawner(env)
    try:
        outcomes, metrics = measure(WORKLOADS[args.workload], rng, args.seconds, spawner, deadline, record)
    finally:
        spawner.close()
    failures = [o for o in outcomes if o.failure]
    record.update(
        loadavg_end=loadavg(),
        error_rate=len(failures) / len(outcomes),
        failures=[f"{' '.join(o.argv)}: {o.failure}" for o in failures[:10]],
    )
    for line in record["failures"]:
        print(f"failed: {line}", file=sys.stderr)
    print(json.dumps({"run_record": record}))
    print(
        json.dumps(
            {
                "correct": not failures,
                "attempted": len(outcomes),
                "failed": len(failures),
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
