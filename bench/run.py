"""Benchmark of the ``pec`` command line, one workload per invocation.

    python3 bench/run.py --workload od-dense --seed 1 --seconds 20 --trace 0

Run from the root of a pec checkout; the program is imported from
``src/``.  The workload's inputs are made from ``--seed`` before timing
starts.  Then a closed loop with one client runs the workload's command,
each time in a fresh child process (``child.py``), until the next command
would overrun ``--seconds`` (at least three commands).  Every command's
outputs are checked, and all commands of one run must produce the same
outputs.

With ``--trace 0`` the end-to-end metrics are reported, each the median
over the run's commands.  With ``--trace 1`` commands alternate between
untraced and traced (layer spans installed by ``spans.py``), and the
per-layer metrics are reported: medians over the traced commands, plus
the tracing overhead.  Metric names and units are those of
``BENCHMARK.json``.  The last line of standard output is one JSON object;
the environment and every command's record go to ``.bench-work/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

from spans import layer_metrics  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROBES = 1
MIN_COMMANDS = 3  # the median of three outvotes one disturbed command
RUN_LIMIT_S = 170  # every child is stopped by then, whatever --seconds says
# Duration of one child.py speed probe at the reference speed.  Every
# reported time has the probes taken out and is scaled by this over the
# mean probe duration of the same process, i.e. reported at that speed.
REFERENCE_PROBE_S = 0.0015


class BenchError(RuntimeError):
    """The benchmark cannot run here; exit without a result."""


def monotonic() -> float:
    """System-wide clock, comparable between this process and its children."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def declared_metrics(root: Path) -> dict:
    """Metric name -> unit, for the end-to-end and the per-layer metrics."""
    try:
        spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise BenchError(f"cannot read BENCHMARK.json: {exc}") from None
    return {kind: {m["name"]: m["unit"] for m in spec[kind]} for kind in ("end_to_end", "per_layer")}


def child_env(root: Path, work: Path) -> tuple[dict, dict]:
    """Environment for every child, and the BLAS thread caps it sets."""
    nproc = len(os.sched_getaffinity(0))
    env = dict(os.environ)
    caps = {}
    for var in BLAS_VARS:
        raw = env.get(var, str(nproc))
        try:
            value = int(raw)
        except ValueError:
            raise BenchError(f"{var}={raw!r} is not a thread count") from None
        if not 1 <= value <= nproc:
            raise BenchError(f"{var}={value} is outside 1..{nproc} (nproc); refusing to run")
        env[var] = caps[var] = str(value)
    env["PYTHONPATH"] = str(root / "src")
    env["TMPDIR"] = str(work)
    return env, {"nproc": nproc, "blas_threads": caps}


def git_commit(root: Path) -> str:
    """HEAD commit read from ``.git`` without running git; 'unknown' outside a repository."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="ascii").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="ascii").strip()
        for line in (git / "packed-refs").read_text(encoding="ascii").splitlines():
            if line.endswith(" " + ref):
                return line.split(" ")[0]
    except OSError:
        pass
    return "unknown"


class Runner:
    """Starts the children of one run and waits for each to end."""

    def __init__(self, root: Path, work: Path, env: dict):
        self.root, self.work, self.env = root, work, env
        self.count = 0
        self.deadline = monotonic() + RUN_LIMIT_S
        self.scores: dict[str, dict] = {}

    def time_left(self) -> float:
        return self.deadline - monotonic()

    def pec(self, args: list[str]) -> None:
        """Run a ``pec`` command that is not measured (input generation)."""
        try:
            proc = subprocess.run([sys.executable, "-m", "pec.cli", *args], cwd=self.root,
                                  env=self.env, stdout=subprocess.DEVNULL,
                                  stderr=subprocess.PIPE, text=True, timeout=self.time_left())
        except subprocess.TimeoutExpired:
            raise BenchError(f"pec {' '.join(args)} did not end within the run limit") from None
        if proc.returncode != 0:
            raise BenchError(f"pec {' '.join(args)} failed: {proc.stderr.strip()[-2000:]}")

    def score(self, embeddings: Path, truths: list[Path], seed: int) -> dict:
        """Run score.py (untimed), once per distinct embedding file."""
        key = hashlib.sha256(embeddings.read_bytes()).hexdigest()
        if key not in self.scores:
            args = [str(BENCH_DIR / "score.py"), str(embeddings), str(seed), *map(str, truths)]
            try:
                proc = subprocess.run([sys.executable, *args], cwd=self.root, env=self.env,
                                      capture_output=True, text=True, timeout=self.time_left())
            except subprocess.TimeoutExpired:
                raise BenchError("score.py did not end within the run limit") from None
            if proc.returncode != 0:
                raise BenchError(f"score.py failed: {proc.stderr.strip()[-2000:]}")
            self.scores[key] = json.loads(proc.stdout.splitlines()[-1])
        return self.scores[key]

    def child(self, mode: str, args: list[str]) -> dict:
        """Run ``child.py`` once; return its record with set-up time and status."""
        self.count += 1
        result_path = self.work / f"child{self.count}.json"
        record = {"mode": mode, "ok": False}
        spawned = monotonic()
        try:
            proc = subprocess.run(
                [sys.executable, str(BENCH_DIR / "child.py"), str(result_path), mode, *args],
                cwd=self.root, env=self.env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                text=True, timeout=max(self.time_left(), 0.1),
            )
        except subprocess.TimeoutExpired:
            record["error"] = f"stopped at the {RUN_LIMIT_S} s run limit"
            return record
        if proc.returncode != 0:
            record["error"] = f"exit {proc.returncode}: {proc.stderr.strip()[-2000:]}"
            return record
        try:
            record.update(json.loads(result_path.read_text(encoding="utf-8")))
        except (OSError, ValueError) as exc:
            record["error"] = f"no child result: {exc}"
            return record
        if not Path(record["pec_file"]).resolve().is_relative_to(self.root / "src"):
            raise BenchError(f"pec was imported from {record['pec_file']}, not from src/")
        # ``*_ref``: the time with the speed probes taken out, at reference speed
        record["setup_s"] = record.pop("entered") - spawned
        probe_s = record["setup_probes_s"]
        record["setup_s_ref"] = (record["setup_s"] - sum(probe_s)) * speed_scale(probe_s)
        if mode != "setup":
            probe_s = [end - start for start, end in record["probes"]]
            record["scale"] = speed_scale(probe_s)
            record["wall_net_s"] = record["wall_s"] - sum(probe_s)
            record["wall_s_ref"] = record["wall_net_s"] * record["scale"]
            record["cpu_s_ref"] = (record["cpu_s"] - sum(probe_s)) * record["scale"]
        record["ok"] = True
        return record


def speed_scale(probe_s: list) -> float:
    """Factor from this process's measured speed to the reference speed."""
    return REFERENCE_PROBE_S / statistics.fmean(probe_s) if probe_s else 1.0


def measure(args, root: Path, work: Path) -> tuple[list, list, dict]:
    """Make the inputs, then run the closed loop; returns set-up probes, commands, environment."""
    workload = WORKLOADS[args.workload]
    size = "smoke" if args.smoke else "full"
    env, caps = child_env(root, work)
    environment = {"commit": git_commit(root), **caps, "loadavg_1m_start": os.getloadavg()[0]}
    runner = Runner(root, work, env)
    fixture = work / "inputs"
    runner.pec(workload.fixture_args(args.seed, fixture, size))
    setups = [runner.child("setup", []) for _ in range(SETUP_PROBES)]

    records: list[dict] = []
    start = monotonic()
    while True:
        mode = "trace" if args.trace and len(records) % 2 else "run"
        out = work / f"out{len(records)}"
        record = runner.child(mode, workload.command(fixture, out, args.seed, size))
        if record["ok"]:
            outcome = workload.check(
                out, fixture, size, lambda emb, truths: runner.score(emb, truths, args.seed))
            record.update(vars(outcome))
        records.append(record)
        shutil.rmtree(out, ignore_errors=True)
        elapsed = monotonic() - start
        if len(records) >= MIN_COMMANDS and elapsed * (len(records) + 1) / len(records) > args.seconds:
            break
        if runner.time_left() <= 0:
            break
    environment["loadavg_1m_end"] = os.getloadavg()[0]
    return setups, records, environment


def score(records: list) -> tuple[int, int, list]:
    """Attempted and failed operations, marking each record's problems.

    An operation is a command, or a sweep cell.  A failed command, a failed
    output check or outputs that differ between commands of the run fail
    every operation the command stands for.
    """
    digests = {r["digest"] for r in records if r.get("digest")}
    attempted = failed = 0
    problems = []
    for r in records:
        ops = r.get("operations", 1)
        issues = list(r.get("problems", []))
        if not r["ok"]:
            issues.append(f"command failed: {r['error']}")
        if len(digests) > 1:
            issues.append("outputs differ between commands of this run")
        r["problems"] = issues
        bad = r.get("failed_operations", 0)
        attempted += ops
        failed += bad if bad or not issues else ops
        problems += issues
    return attempted, failed, problems


def summarize(args, setups: list, records: list) -> dict:
    """Metric name -> (median over the run's good commands, sample count)."""
    good = [r for r in records if not r["problems"]]
    untraced = [r for r in good if r["mode"] == "run"]
    traced = [r for r in good if r["mode"] == "trace"]
    if not untraced or (args.trace and not traced):
        return {}

    def median(rows: list, key: str) -> tuple[float, int]:
        return statistics.median(r[key] for r in rows), len(rows)

    if not args.trace:
        return {
            "wall_s": median(untraced, "wall_s_ref"),
            "setup_s": median([r for r in setups + records if "setup_s_ref" in r], "setup_s_ref"),
            "cpu_s": median(untraced, "cpu_s_ref"),
            "peak_rss_mb": median(untraced, "peak_rss_mb"),
            "macro_f1": median(untraced, "quality"),
        }
    layers = [layer_metrics(r["trace"], r["wall_net_s"], r["probes"], r["scale"]) for r in traced]
    values = {name: median(layers, name) for name in layers[0]}
    overhead = median(traced, "wall_s_ref")[0] - median(untraced, "wall_s_ref")[0]
    values["trace.overhead_s"] = (overhead, len(traced) + len(untraced))
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs through the same code path, for the smoke test")
    args = parser.parse_args(argv)

    root = Path.cwd().resolve()
    work = root / ".bench-work" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        if not (root / "src" / "pec" / "cli.py").is_file():
            raise BenchError(f"no pec sources under {root / 'src'}; run from a pec checkout")
        declared = declared_metrics(root)
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        try:
            setups, records, environment = measure(args, root, work)
        finally:
            shutil.rmtree(work, ignore_errors=True)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2

    attempted, failed, problems = score(records)
    values = summarize(args, setups, records)
    kind = "per_layer" if args.trace else "end_to_end"
    if values and set(values) != set(declared[kind]):
        print(f"bench: measured {sorted(values)} but BENCHMARK.json declares "
              f"{sorted(declared[kind])}", file=sys.stderr)
        return 2
    if args.trace:
        environment["missing_spans"] = sorted(
            {m for r in records if "trace" in r for m in r["trace"]["missing"]})
    environment.update(next((r["versions"] for r in records if "versions" in r), {}))
    metrics = {name: {"value": v, "unit": declared[kind][name]} for name, (v, n) in values.items()}
    result = {"correct": failed == 0 and bool(metrics), "attempted": attempted,
              "failed": failed, "metrics": metrics}

    results = root / ".bench-work" / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"environment": environment, "setups": setups, "commands": records,
                    "result": result}, indent=1), encoding="utf-8")
    for problem in problems:
        print(f"bench: {problem}", file=sys.stderr)
    for name in environment.get("missing_spans", []):
        print(f"bench: not traced: {name}", file=sys.stderr)
    print("environment " + json.dumps(environment, sort_keys=True))
    for name, (value, n) in values.items():
        print(f"{args.workload:12s} {name:30s} {value:14.6g} {declared[kind][name]:6s} "
              f"median of {n}")
    print(json.dumps(result))
    return 0 if metrics else 1


if __name__ == "__main__":
    sys.exit(main())
