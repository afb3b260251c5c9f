"""Benchmark driver for the hbinom CLI (standard library only).

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout.  The seed draws a pool of cases (see
workloads.py and workloads.json); the driver then runs them in turn as a
closed loop with one client.  An op runs the case's argv once per pass of the
workload (int_triangle_cache: a cold pass, then a warm pass over the cache it
wrote) in a fresh directory.  Each CLI invocation gets a fresh child
interpreter (child.py), so the engine's module-level memos start cold as they
do for a CLI user, and at most one child is alive at a time.  Every output is
checked against an independent reference outside the timed region.

With --trace 0 the last line reports the end-to-end metrics; with --trace 1
each op runs twice, untraced and then traced (tracer.py), and the last line
reports the per-layer metrics and the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field

import tracer
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD = os.path.join(HERE, "child.py")
WORK_DIR_NAME = ".bench_work"
CHILD_TIMEOUT_S = 60.0

END_TO_END = {"setup_s": "s", "wall_p75_s": "s", "throughput_per_s": "1/s",
              "peak_rss_mb": "MB"}
# Per-layer metrics the driver works out from untraced passes, not from spans.
DRIVER_LAYER_METRICS = ("cli.replay_wall_s", "trace.overhead_s", "trace.overhead_frac")


class BenchError(RuntimeError):
    """The benchmark cannot run here (no program, or it does not start)."""


@dataclass
class Child:
    """One child interpreter, timed by the driver."""

    pid: int
    t_spawn: float
    t_exit: float
    setup_s: float
    ready: bool
    report: dict | None
    stderr: str


@dataclass
class Op:
    """One op: the workload's argv run once per pass, in one directory."""

    op: str
    case: str
    children: list
    items: int
    traced: bool
    failure: str | None = None
    layers: dict = field(default_factory=dict)

    @property
    def ran(self) -> bool:
        return all(child.report for child in self.children)

    @property
    def wall_s(self) -> float:
        return sum(child.report["wall_s"] for child in self.children)

    @property
    def busy_s(self) -> float:
        return sum(child.t_exit - child.t_spawn for child in self.children)

    @property
    def rss_mb(self) -> float:
        return max(child.report["rss_kb"] for child in self.children) / 1024


def spawn(root: str, job: dict) -> Child:
    """Run child.py on `job` and wait for it to end."""
    env = dict(os.environ)
    env.pop("HBINOM_CACHE_DIR", None)
    t_spawn = time.perf_counter()
    proc = subprocess.Popen([sys.executable, CHILD, json.dumps(job)], cwd=root,
                            env=env, stdin=subprocess.DEVNULL,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True)
    try:
        ready = proc.stdout.readline() == "ready\n"
        t_ready = time.perf_counter()
        rest, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        rest, err = proc.communicate()
        err += f"\nkilled after {CHILD_TIMEOUT_S} s"
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    t_exit = time.perf_counter()
    report = None
    if ready and proc.returncode == 0 and rest.strip():
        report = json.loads(rest.strip().splitlines()[-1])
    return Child(proc.pid, t_spawn, t_exit, t_ready - t_spawn, ready, report, err)


def check_program(root: str) -> None:
    if not os.path.isfile(os.path.join(root, "src", "hbinom", "cli.py")):
        raise BenchError(f"no hbinom sources under {os.path.join(root, 'src')}")


class Session:
    """Ops of one run, all in one scratch directory inside the checkout."""

    def __init__(self, root: str, plan: workloads.Plan, work: str):
        self.root = root
        self.plan = plan
        self.work = work
        self.ops: list[Op] = []
        self.pairs: list[tuple[Op, Op]] = []
        self.setups: list[float] = []

    def probe(self) -> Child:
        child = spawn(self.root, {"root": self.root, "argv": None})
        if not child.ready:
            raise BenchError(f"the child did not start:\n{child.stderr.strip()}")
        return child

    def run_pass(self, case: workloads.Case, tmp: str, job_id: str,
                 traced: bool) -> tuple[Child, str | None, str, tuple | None]:
        """One CLI invocation in `tmp`, checked against the reference.
        Returns the child, the failure (or None), its stdout and its spans."""
        for name, text in case.files:
            with open(os.path.join(tmp, name), "w", encoding="utf-8") as fh:
                fh.write(text)
        stdout_path = os.path.join(tmp, f"{job_id}.out")
        spans_path = os.path.join(tmp, f"{job_id}.spans")
        child = spawn(self.root, {
            "root": self.root, "op": job_id, "trace": traced,
            "argv": [arg.replace("{tmp}", tmp) for arg in case.argv],
            "stdout_path": stdout_path, "spans_path": spans_path})
        failure, stdout, spans = None, "", None
        rep = child.report
        if rep is None:
            failure = f"child failed: {child.stderr.strip()[-300:]}"
        elif rep["error"] or rep["rc"] != 0:
            failure = f"exit {rep['rc']} {rep['error'] or ''} {rep['stderr'].strip()}"
        else:
            with open(stdout_path, "r", encoding="utf-8") as fh:
                stdout = fh.read()
            failure = workloads.check_output(self.plan, case, stdout, tmp)
            if traced:
                spans = tracer.load(spans_path)
        for path in (stdout_path, spans_path):
            if os.path.exists(path):
                os.remove(path)
        self.setups.append(child.setup_s)
        return child, failure, stdout, spans

    def run_op(self, index: int, traced: bool = False) -> Op:
        """All passes of case `index` in a fresh directory; a later pass
        must print exactly what the first printed."""
        case = self.plan.cases[index]
        op_id = f"op{len(self.ops)}{'t' if traced else ''}-{index}"
        tmp = os.path.join(self.work, op_id)
        os.makedirs(tmp)
        op = Op(op_id, case.label, [], case.items * len(self.plan.passes), traced)
        dumps, first = [], None
        for name in self.plan.passes:
            child, failure, stdout, spans = self.run_pass(case, tmp, f"{op_id}-{name}", traced)
            op.children.append(child)
            if first is None:
                first = stdout
            elif failure is None and stdout != first:
                failure = f"{name} pass differs from the first pass"
            op.failure = op.failure or failure and f"{name} pass: {failure}"
            if spans:
                dumps.append(spans)
        if traced and op.failure is None:
            op.layers = tracer.op_metrics(dumps)
        shutil.rmtree(tmp)
        self.ops.append(op)
        return op

    def loop(self, seconds: float, trace: bool) -> None:
        """Closed loop over the pool until the ops have used `seconds`."""
        busy, i = 0.0, 0
        while i == 0 or busy < seconds:
            index = i % len(self.plan.cases)
            plain = self.run_op(index)
            busy += plain.busy_s
            if trace:
                traced = self.run_op(index, traced=True)
                busy += traced.busy_s
                self.pairs.append((plain, traced))
            i += 1


def upper_quartile(values: list) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=4, method="inclusive")[2]


def end_to_end(session: Session) -> dict:
    """The op wall time is reported at its upper quartile: on a shared host
    the clock speeds up in bursts while neighbours idle, and the median of a
    run lands on whichever clock state held most of it, while the upper
    quartile stays on the unboosted speed unless boosts fill most of the run."""
    ops = [op for op in session.ops if op.ran]
    busy = sum(op.busy_s for op in session.ops)
    items = sum(op.items for op in session.ops if op.failure is None)
    return {
        "setup_s": statistics.median(session.setups),
        "wall_p75_s": upper_quartile([op.wall_s for op in ops]),
        "throughput_per_s": items / busy,
        "peak_rss_mb": statistics.median(op.rss_mb for op in ops),
    }


def per_layer(session: Session) -> dict:
    traced = [op for op in session.ops if op.traced and op.layers]
    pairs = [(p, t) for p, t in session.pairs if p.ran and t.ran]
    if not traced or not pairs:
        raise BenchError("no traced op ran")
    out = {name: statistics.median(op.layers[name] for op in traced)
           for name in tracer.PER_LAYER if name not in DRIVER_LAYER_METRICS}
    out["cli.replay_wall_s"] = (
        statistics.median(p.children[-1].report["wall_s"] for p, _ in pairs)
        if len(session.plan.passes) > 1 else 0.0)
    out["trace.overhead_s"] = statistics.median(t.wall_s - p.wall_s for p, t in pairs)
    out["trace.overhead_frac"] = (out["trace.overhead_s"]
                                  / statistics.median(p.wall_s for p, _ in pairs))
    return out


def run(workload: str, seed: int, seconds: float, trace: bool,
        root: str = ROOT, sizes: dict | None = None) -> dict:
    """One benchmark run; returns the plan, the ops and the metrics."""
    check_program(root)
    plan = workloads.make_plan(workload, seed, sizes)
    work_root = os.path.join(root, WORK_DIR_NAME)
    os.makedirs(work_root, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{workload}-", dir=work_root)
    try:
        session = Session(root, plan, work)
        session.probe()  # first start compiles bytecode; not a sample
        session.setups.extend(session.probe().setup_s
                              for _ in range(plan.sizes["setup_probes"]))
        session.loop(seconds, trace)
        if not any(op.ran for op in session.ops):
            raise BenchError(f"no op ran: {session.ops[0].failure}")
        metrics = per_layer(session) if trace else end_to_end(session)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    failed = sum(op.failure is not None for op in session.ops)
    return {"plan": plan, "ops": session.ops, "setups": session.setups,
            "metrics": metrics, "attempted": len(session.ops), "failed": failed}


def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[wl["name"] for wl in
                                 workloads.load_definitions()["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, workloads.GeneratorError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    ops = result["ops"]
    units = tracer.PER_LAYER if args.trace else END_TO_END
    print(f"hbinom benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace} "
          f"python={platform.python_implementation()} {platform.python_version()} "
          f"nproc={os.cpu_count()} clients=1 loop=closed")
    print("inputs: " + json.dumps(result["plan"].record(), sort_keys=True))
    for op in ops:
        if op.failure:
            print(f"FAILED {op.op} case={op.case}: {op.failure}")
    n_ops = sum(1 for op in ops if op.traced == bool(args.trace))
    for name, value in result["metrics"].items():
        if name == "setup_s":
            how = f"median of n={len(result['setups'])} starts"
        elif name == "throughput_per_s":
            how = f"over n={n_ops} ops"
        elif name == "wall_p75_s":
            how = f"upper quartile of n={n_ops} ops"
        else:
            how = f"median of n={n_ops} ops"
        print(f"  {name:<36} {_fmt(value):>14} {units[name]:<6} {how}")
    if not args.trace:
        walls = [op.wall_s for op in ops if op.ran]
        print(f"  {'wall_s':<36} {_fmt(statistics.median(walls)):>14} {'s':<6}"
              f" median of n={len(walls)} ops")
    print(f"  {'ops_failed_frac':<36} {_fmt(result['failed'] / result['attempted']):>14}"
          f" {'ratio':<6} {result['failed']} of {result['attempted']} ops")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
