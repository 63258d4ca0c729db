"""One benchmark task in a fresh interpreter.

Usage: child.py WORKLOAD TASK SEED TRACE OUT_PATH WORK_DIR

Writes two JSON lines to OUT_PATH: a ``ready`` line once tournkit is imported
and the inputs are built, and a ``done`` line with the task's wall and CPU
time, the machine's speed factor over the task (see calibrate.py) and the
answer.  With TRACE=1 the task runs under the tracer, SIGTERM
ends it early, and the spans go to WORK_DIR.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import signal
import sys
import time

import workloads
from calibrate import Speedometer


class BudgetExpired(BaseException):
    """Raised by SIGTERM in a traced task so that open spans close."""


def build(tk, obj, seed):
    kind = obj[0]
    if kind == "family":
        return tk.family(obj[1], obj[2])
    if kind == "chain":
        return tk.chain(obj[1])
    if kind == "lex_cycle3_chains":
        return tk.lex_sum(tk.cycle3(), [tk.chain(obj[1])] * 3)
    if kind == "witness":
        return tk.witness(obj[1])
    if kind == "cycle3":
        return tk.cycle3()
    if kind == "paley":
        return tk.Tournament(obj[1], workloads.paley_rows(obj[1]))
    if kind == "random_prime":
        return tk.Tournament(obj[1], workloads.random_prime_rows(obj[1], seed))
    raise ValueError(f"unknown object {obj!r}")


def run_cli(argv):
    """tournkit.cli.main with stdout captured; returns (exit code, stdout bytes)."""
    real_out, real_err = sys.stdout, sys.stderr
    sys.stdout, sys.stderr = io.StringIO(), io.StringIO()
    try:
        code = sys.modules["tournkit.cli"].main(argv)
    except SystemExit as exc:
        code = exc.code
    finally:
        out = sys.stdout.getvalue()
        sys.stdout, sys.stderr = real_out, real_err
    return code, out.encode("utf-8")


def cli_answer(result):
    code, out = result
    answer = {"exit": code, "sha256": hashlib.sha256(out).hexdigest()}
    if code == 0:
        payload = json.loads(out)
        if "suite" in payload:
            answer["passed"] = payload["passed"]
        elif "count" in payload:
            answer["count"] = payload["count"]
            answer["listed"] = len(payload["tournaments"])
        else:
            answer.update({k: payload[k] for k in ("spectrum", "blocks", "quotient",
                                                   "acyclically_indecomposable", "indecomposable")})
    return answer


def prepare(tk, task, seed, work_dir):
    """Build the task's inputs; return (timed thunk, answer extractor)."""
    job, args = task.job, task.args
    if job == "cli":
        return (lambda: run_cli(list(args))), cli_answer
    if job == "decompose":
        path = os.path.join(work_dir, f"{task.name}.txt")
        tk.dump_path(build(tk, args, seed), path)
        return (lambda: run_cli(["decompose", path])), cli_answer
    if job == "canonical":
        t = build(tk, args, seed)
        return (lambda: tk.canonical_form(t)), (lambda code: {"bits": format(code.bits, "x")})
    if job == "automorphisms":
        t = build(tk, args, seed)
        return (lambda: tk.automorphism_count(t)), (lambda count: {"count": count})
    if job == "sum_profile":
        index, n_max, fit_k = args
        index = build(tk, index, seed)
        spec = tk.SumSpec(index, (tk.UNBOUNDED,) * index.n)

        def run():
            series = tk.sum_profile_sequence(spec, n_max)
            return series, (tk.series_fit(series, fit_k) if fit_k is not None else None)

        return run, (lambda r: {"values": list(r[0].values), "fit": r[1]})
    if job == "canonical_batch":
        n, count = args
        ts = [tk.Tournament(n, rows) for rows in workloads.canonical_batch(n, count, seed)]
        return (lambda: [tk.canonical_form(t) for t in ts]), (lambda codes: {"codes": [format(c.bits, "x") for c in codes]})
    raise ValueError(f"unknown job {job!r}")


def main(argv) -> int:
    workload, name, seed, traced, out_path, work_dir = argv[1], argv[2], int(argv[3]), argv[4] == "1", argv[5], argv[6]
    task = next(t for t in workloads.WORKLOADS[workload] if t.name == name)
    src = os.environ["PERFBENCH_SRC"]
    import tournkit as tk
    import tournkit.cli  # noqa: F401  (cli.main is looked up through sys.modules)

    if not os.path.abspath(tk.__file__).startswith(src + os.sep):
        raise SystemExit(f"tournkit imported from {tk.__file__}, not from {src}")
    tracer = None
    if traced:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()

        def expire(signum, frame):
            raise BudgetExpired

        signal.signal(signal.SIGTERM, expire)
    run, answer_of = prepare(tk, task, seed, work_dir)
    ready, setup_cpu = time.monotonic(), time.process_time()
    meter = Speedometer()
    with open(out_path, "w", encoding="utf-8") as out:
        out.write(json.dumps({"ready": ready, "setup_cpu": setup_cpu, "speed": meter.setup_factor}) + "\n")
        out.flush()
        done = {"interrupted": False}
        meter.start()
        cpu0, t0 = time.process_time(), time.perf_counter()
        try:
            result = run()
        except BudgetExpired:
            done["interrupted"] = True
        except Exception as exc:  # the task's own failure is the answer to report
            done["error"] = f"{type(exc).__name__}: {exc}"
        wall, cpu = time.perf_counter() - t0, time.process_time() - cpu0
        meter.stop()
        done["wall"], done["cpu"] = wall - meter.inside_s, cpu - meter.inside_cpu_s
        done["speed"], done["cpu_speed"] = meter.factors()
        done["kernel_s"], done["kernel_cpu_s"] = meter.wall, meter.cpu
        if traced:
            signal.signal(signal.SIGTERM, signal.SIG_IGN)
        if not done["interrupted"] and "error" not in done:
            done["answer"] = answer_of(result)
        if tracer is not None:
            done["layers"] = tracer.summary()
            tracer.dump(os.path.join(work_dir, f"{task.name}.spans"), task.name)
        out.write(json.dumps(done) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
