"""tournkit benchmark: fresh-process workloads against ./src, answers checked.

Usage (from the repository root):

    python3 perfbench/run.py --workload suites|symmetric|decompose \
        --seed N --seconds S --trace 0|1

Each task runs in its own interpreter with PYTHONPATH=src, so the
process-global caches start cold.  A pass runs every task of the workload
once, one process at a time; passes repeat while the next one is expected to
end within --seconds, and every metric is the median over passes.  With
--trace 0 the last stdout line holds the end-to-end metrics named in
BENCHMARK.json; with --trace 1 it holds the per-layer metrics, taken from
traced passes that alternate with untraced ones.  Raw samples and run
metadata go to .perfbench/runs/, spans to .perfbench/work/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import select
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.dont_write_bytecode = True

import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
GRACE_S = 10.0  # a traced task gets this long after SIGTERM to write its spans


def child_env() -> dict:
    env = dict(os.environ)
    env.update(PYTHONPATH=str(SRC), PYTHONDONTWRITEBYTECODE="1", PYTHONHASHSEED="0",
               PERFBENCH_SRC=str(SRC / "tournkit"))
    return env


def run_task(workload: str, task: workloads.Task, seed: int, traced: bool, env: dict) -> dict:
    """Run one task in a fresh process and return its sample."""
    work = OUT / "work" / workload
    out_path = work / f"{task.name}.out"
    out_path.unlink(missing_ok=True)
    cmd = [sys.executable, str(HERE / "child.py"), workload, task.name, str(seed),
           "1" if traced else "0", str(out_path), str(work)]
    with open(work / f"{task.name}.err", "wb") as err:
        spawned = time.monotonic()
        proc = subprocess.Popen(cmd, env=env, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=err)
        # reaped with wait4 rather than Popen.wait, for the child's own rusage
        pidfd = os.pidfd_open(proc.pid)
        try:
            expired = not select.select([pidfd], [], [], task.budget_s)[0]
            stopped = time.monotonic()
            if expired:
                os.kill(proc.pid, signal.SIGTERM if traced else signal.SIGKILL)
                if traced and not select.select([pidfd], [], [], GRACE_S)[0]:
                    os.kill(proc.pid, signal.SIGKILL)
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            os.kill(proc.pid, signal.SIGKILL)
            os.wait4(proc.pid, 0)
            raise
        finally:
            os.close(pidfd)
        proc.returncode = os.waitstatus_to_exitcode(status)
    lines = []
    for line in out_path.read_text().splitlines() if out_path.exists() else []:
        try:
            lines.append(json.loads(line))
        except json.JSONDecodeError:  # cut short when the child was killed mid-write
            break
    ready = lines[0] if lines else None
    done = lines[1] if len(lines) > 1 else {}
    # Times are in reference seconds (calibrate.py), except that a task that
    # did not finish counts the raw time it was given, as wall and as CPU time.
    setup_raw = (ready["ready"] if ready else stopped) - spawned
    sample = {
        "task": task.name,
        "cliff": task.cliff,
        "setup_raw_s": setup_raw,
        "setup_s": setup_raw * ready["speed"] if ready else setup_raw,
        "peak_rss_mb": usage.ru_maxrss / 1024,
        "exit": proc.returncode,
    }
    if expired or "wall" not in done or done.get("interrupted"):
        sample["wall_s"] = sample["cpu_s"] = sample["wall_raw_s"] = stopped - ready["ready"] if ready else 0.0
        sample["cpu_raw_s"] = usage.ru_utime + usage.ru_stime - (ready["setup_cpu"] if ready else 0.0)
    else:
        sample.update({key: done[key] for key in ("speed", "cpu_speed", "kernel_s", "kernel_cpu_s")})
        sample["wall_raw_s"], sample["cpu_raw_s"] = done["wall"], done["cpu"]
        sample["wall_s"], sample["cpu_s"] = done["wall"] * done["speed"], done["cpu"] * done["cpu_speed"]
    if "answer" in done:
        sample["answer"] = done["answer"]
    if "layers" in done:
        sample["layers"] = {key: value * done["speed"] if key.endswith(".self_s") else value
                            for key, value in done["layers"].items()}
    if expired:
        sample["status"] = "timeout"
    elif proc.returncode != 0 or not ready or "wall" not in done:
        sample["status"] = "crashed"
        sample["detail"] = f"exit {proc.returncode}: " + (work / f"{task.name}.err").read_text()[-400:]
    elif "error" in done:
        sample["status"] = "error"
        sample["detail"] = done["error"]
    else:
        input_path = work / f"{task.name}.txt"
        input_rows = None
        if task.job == "decompose":
            matrix = input_path.read_text().split()[1:]
            input_rows = [int(line[::-1], 2) for line in matrix]
        problem = workloads.check(task, done["answer"], seed, input_rows)
        sample["status"] = "wrong" if problem else "ok"
        if problem:
            sample["detail"] = problem
    return sample


def run_pass(workload: str, seed: int, traced: bool, env: dict) -> dict:
    tasks = [run_task(workload, task, seed, traced, env) for task in workloads.WORKLOADS[workload]]
    summary = {
        "traced": traced,
        "wall_s": sum(t["wall_s"] for t in tasks),
        "cpu_s": sum(t["cpu_s"] for t in tasks),
        "slowest_task_s": max(t["wall_s"] for t in tasks),
        "setup_s": sum(t["setup_s"] for t in tasks),
        "peak_rss_mb": max(t["peak_rss_mb"] for t in tasks),
        "tasks": tasks,
    }
    if traced:
        summary["layers"] = layer_totals(tasks)
    return summary


def layer_totals(tasks: list[dict]) -> dict:
    """Sum the tasks' per-layer numbers and derive the ratios."""
    total: dict[str, float] = {}
    for t in tasks:
        for key, value in t.get("layers", {}).items():
            total[key] = total.get(key, 0) + value
    calls = total.get("core.canonical_form.calls", 0)
    total["core.canonical_form.cache_hit_ratio"] = total.get("core.canonical_form.cache_hits", 0) / calls if calls else 0.0
    enum_calls = total.get("verify.enumerate_tournaments.canonical_calls", 0)
    total["verify.enumerate_tournaments.useful_ratio"] = (
        total.get("verify.enumerate_tournaments.classes", 0) / enum_calls if enum_calls else 0.0)
    return total


def metadata(args) -> dict:
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                             timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        sha = None
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), None)
    except OSError:
        pass
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "git_sha": sha, "src_sha256": digest.hexdigest(),
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu, "loadavg_start": os.getloadavg(),
        "started_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "tournkit" / "__init__.py").is_file():
        parser.exit(2, f"error: {SRC / 'tournkit'} not found; run from the repository root\n")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    (OUT / "work" / args.workload).mkdir(parents=True, exist_ok=True)
    (OUT / "runs").mkdir(parents=True, exist_ok=True)
    meta = metadata(args)
    env = child_env()

    passes = []
    began = time.monotonic()
    while True:
        started = time.monotonic()
        passes.append(run_pass(args.workload, args.seed, False, env))
        if args.trace:
            passes.append(run_pass(args.workload, args.seed, True, env))
        took = time.monotonic() - started
        if time.monotonic() - began + took > args.seconds:
            break

    plain = [p for p in passes if not p["traced"]]
    tasks = [t for p in passes for t in p["tasks"]]
    failed = sum(t["status"] != "ok" for t in tasks)
    values = {name: statistics.median(p[name] for p in plain)
              for name in ("wall_s", "cpu_s", "slowest_task_s", "setup_s", "peak_rss_mb")}
    values["ops_failed_ratio"] = failed / len(tasks)
    if args.trace:
        traced = [p for p in passes if p["traced"]]
        names = {name for p in traced for name in p["layers"]}
        values = {name: statistics.median(p["layers"].get(name, 0) for p in traced) for name in names}
        values["trace.overhead_s"] = (statistics.median(p["wall_s"] for p in traced)
                                      - statistics.median(p["wall_s"] for p in plain))
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    result = {
        "correct": not any(t["status"] in ("wrong", "error", "crashed") for t in tasks),
        "attempted": len(tasks),
        "failed": failed,
        "metrics": metrics,
    }
    record = OUT / "runs" / f"{args.workload}-seed{args.seed}-trace{args.trace}-{time.time_ns()}.json"
    record.write_text(json.dumps({"meta": meta, "passes": passes, "result": result}, indent=1))
    for t in tasks:
        if t["status"] != "ok":
            print(f"{t['task']}: {t['status']} {t.get('detail', '')}".rstrip(), file=sys.stderr)
    print(f"{len(plain)} untraced pass(es); raw samples in {record.relative_to(ROOT)}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
