"""agreelab benchmark: time one workload end to end, in fresh processes.

    python3 perfbench/run.py --workload noise-ensemble --seed 0 --seconds 15 --trace 0

Run from the root of a source checkout.  Each pass of the workload runs
perfbench/one_pass.py in a fresh Python process that imports agreelab
from ./src, as the test suite does: one caller in a closed loop, no
threads of its own.  After a few set-up-only passes that time import and
input generation, passes repeat while the next one is expected to end
within --seconds (there is always at least one).  Every output of every
pass is checked.

--trace 0 reports the end-to-end metrics: medians over the run's passes
of wall_s, setup_s and peak_rss_mb.  --trace 1 alternates untraced and
traced passes (at least one of each) and reports the
per-layer metrics (medians over traced passes) and trace.overhead_s, the
traced minus the untraced median wall time.

The last line of stdout is one JSON object: correct, attempted, failed
(operations) and metrics.  The lines before it give every metric with
its unit and sample count, error_rate, per-operation times and the run
record.  Working files go to .perfbench/ and are removed after each
pass; the spans of the last traced pass stay in .perfbench/trace/.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import LAYER_METRICS
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
ONE_PASS = HERE / "one_pass.py"
WORK = ROOT / ".perfbench"
SETUP_PROBES = 4  # set-up-only passes per run, on top of each pass's own set-up
RUN_LIMIT_S = 170.0  # a run must end within 180 s


def git_commit(root: Path) -> str | None:
    """HEAD of the checkout's own .git, read without running git (which
    would search the parent directories)."""
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


def high_percentile(values):
    """(percentile, value) of the highest percentile with at least ten
    samples above it, or None when there are fewer than 20 samples."""
    n = len(values)
    if n < 20:
        return None
    return 100.0 * (n - 10) / n, sorted(values)[n - 11]


def timing(values, unit="s") -> str:
    text = f"{statistics.median(values):.6g} {unit} (median of {len(values)}"
    hp = high_percentile(values)
    if hp:
        text += f", p{hp[0]:.0f} {hp[1]:.6g} {unit}"
    return text + ")"


class Runner:
    def __init__(self, workload: str, seed: int, deadline: float):
        self.workload, self.seed, self.deadline = workload, seed, deadline
        paths = [str(ROOT / "src")] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))
        self.count = 0

    def run(self, trace: int = 0, setup_only: bool = False):
        """One pass in a fresh process; its JSON result, or an error string."""
        self.count += 1
        workdir = WORK / "work" / f"{self.workload}-{os.getpid()}-{self.count}"
        cmd = [sys.executable, str(ONE_PASS), "--workload", self.workload, "--seed", str(self.seed),
               "--workdir", str(workdir), "--trace", str(trace)]
        if setup_only:
            cmd.append("--setup-only")
        if trace:
            (WORK / "trace").mkdir(parents=True, exist_ok=True)
            cmd += ["--trace-out", str(WORK / "trace" / f"{self.workload}.jsonl")]
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=self.env, capture_output=True, text=True,
                                  timeout=max(1.0, self.deadline - time.perf_counter()))
        except subprocess.TimeoutExpired:
            return "pass killed at the run's time limit"
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            return f"pass exited with {proc.returncode}: {proc.stderr.strip()[-2000:]}"
        try:
            return json.loads(lines[-1])
        except json.JSONDecodeError:
            return f"pass printed no result: {lines[-1][:200]!r}"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    start = time.perf_counter()
    if not (ROOT / "src" / "agreelab" / "cli.py").is_file():
        print(f"no agreelab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    runner = Runner(args.workload, args.seed, start + RUN_LIMIT_S)

    setup = []
    for _ in range(SETUP_PROBES):
        r = runner.run(setup_only=True)
        if isinstance(r, str):
            print(f"set-up failed: {r}", file=sys.stderr)
            return 1
        setup.append(r["setup_s"])

    plain, traced, problems = [], [], []
    attempted = failed = 0
    kinds = (0, 1) if args.trace else (0,)
    rounds = []
    while True:
        round_start = time.perf_counter()
        for trace in kinds:
            r = runner.run(trace=trace)
            if isinstance(r, str):
                ops = max([p["attempted"] for p in plain + traced] or [1])
                attempted, failed = attempted + ops, failed + ops
                problems.append(r)
                continue
            attempted += r["attempted"]
            failed += r["failed"]
            problems += r["problems"]
            (traced if trace else plain).append(r)
        now = time.perf_counter()
        rounds.append(now - round_start)
        # stop before a round that would end past --seconds, so that every
        # run of a workload makes about the same number of passes
        if now + statistics.median(rounds) > start + min(args.seconds, RUN_LIMIT_S):
            break
    if not plain or (args.trace and not traced):
        for p in problems:
            print(f"problem: {p}", file=sys.stderr)
        return 1

    setup += [p["setup_s"] for p in plain]
    walls = [p["wall_s"] for p in plain]
    rss = [p["peak_rss_mb"] for p in plain]
    e2e = {
        "wall_s": (statistics.median(walls), "s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (statistics.median(rss), "MB"),
    }
    print(f"workload {args.workload} seed {args.seed}: {len(plain)} untraced, "
          f"{len(traced)} traced passes in {time.perf_counter() - start:.1f} s")
    print(f"wall_s {timing(walls)}; passes " + " ".join(f"{w:.4g}" for w in walls))
    print(f"setup_s {timing(setup)}")
    print(f"peak_rss_mb {timing(rss, 'MB')}")
    print(f"error_rate {failed / attempted:.6g} ({failed} of {attempted} operations failed)")
    rates = [p["realizations_per_s"] for p in plain if "realizations_per_s" in p]
    if rates:
        print(f"realizations_per_s {timing(rates, '1/s')}")
    for op in plain[0]["op_s"]:
        print(f"op {op} {timing([p['op_s'][op] for p in plain if op in p['op_s']])}")
    for p in problems:
        print(f"problem: {p}")

    if args.trace:
        layers = {name: statistics.median(t["layers"][name] for t in traced) for name in traced[0]["layers"]}
        layers["trace.overhead_s"] = statistics.median(t["wall_s"] for t in traced) - e2e["wall_s"][0]
        metrics = {name: {"value": layers[name], "unit": unit} for name, unit, _ in LAYER_METRICS}
        for name, m in metrics.items():
            print(f"{name} {m['value']:.6g} {m['unit']} (median of {len(traced)})")
    else:
        metrics = {name: {"value": v, "unit": unit} for name, (v, unit) in e2e.items()}

    record = dict(plain[0]["record"], workload=args.workload, seed=args.seed, commit=git_commit(ROOT),
                  trace_missing=traced[0]["trace_missing"] if traced else None)
    print("record " + json.dumps(record, sort_keys=True))
    print(json.dumps({"correct": failed == 0 and not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
