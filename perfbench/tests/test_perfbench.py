"""Tests of the benchmark itself: generator, isolation, gate and tracing.

Run from the repository root:  python3 -m pytest perfbench/tests
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

# Small ops of every workload; any size class is accepted at these sizes.
SMALL = {
    "suite": {"max_n": 4, "pool": 1, "setup_probes": 1},
    "poly_triangle": {"max_n": 6, "pool": 2, "setup_probes": 1},
    "int_triangle_cache": {"max_n": 20, "pool": 2, "size_ratio": [0, 100],
                           "setup_probes": 1},
}
WORKLOADS = tuple(SMALL)


def _inputs(plan):
    """argv lists plus the files they name (the suite's generated config)."""
    return [(case.argv, case.files) for case in plan.cases]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_seed_fixes_the_argv_lists(workload):
    first = workloads.make_plan(workload, 11, SMALL[workload])
    again = workloads.make_plan(workload, 11, SMALL[workload])
    other = workloads.make_plan(workload, 12, SMALL[workload])
    assert _inputs(first) == _inputs(again)
    assert first.record() == again.record()
    assert _inputs(first) != _inputs(other)


def test_generator_rejects_zero_terms_and_repeated_roots():
    assert not workloads._usable(0, 1, 2, -1, 10)     # s^2 + 4t = 0
    assert not workloads._usable(0, 1, 0, 1, 10)      # U(2) = 0
    assert not workloads._usable(3, -2, 1, 2, 10)     # H(3) = 0
    assert workloads._usable(2, 1, 1, 1, 10)
    assert not workloads._usable(1, 1, 1, -1, 10)     # U(3) = 0 for (1, -1)
    for workload in ("suite", "int_triangle_cache"):
        for seed in range(5):
            for case in workloads.make_plan(workload, seed, SMALL[workload]).cases:
                specs = case.spec if isinstance(case.spec, list) else [
                    {k: int(v) for k, v in case.spec.items()}]
                for sp in specs:
                    assert workloads._usable(sp["a"], sp["b"], sp["s"], sp["t"],
                                             SMALL[workload]["max_n"])


def test_suite_prediction_on_the_default_config():
    default = [{"a": 0, "b": 1, "s": 1, "t": 1}, {"a": 0, "b": 1, "s": 2, "t": 1},
               {"a": 0, "b": 1, "s": 3, "t": -2}, {"a": 2, "b": 1, "s": 1, "t": 1}]
    assert workloads.suite_expectation(default) == {"pass": 77, "fail": 0, "skip": 6}


def test_references_match_known_cells():
    fib = workloads.int_triangle_text(0, 1, 1, 1, 5).splitlines()
    assert fib[-3] == "5  3  15"                      # fibonomial {5 choose 3}
    lucas = workloads.int_triangle_text(2, 1, 1, 1, 4).splitlines()
    assert lucas[-3].split("  ")[2] == "28/3"         # companion table at (4, 2)
    poly = workloads.poly_triangle_csv(workloads.Fraction(1), 3).splitlines()
    assert poly[0] == "n,k,value"
    assert poly[-2] == '3,2,"[""1"",""0"",""1""]"'    # {3 choose 2} = x^2 + 1


def test_ops_never_share_an_interpreter():
    result = run.run("int_triangle_cache", 3, 1.0, False,
                     sizes=SMALL["int_triangle_cache"])
    children = [child for op in result["ops"] for child in op.children]
    assert len(result["ops"]) >= 2 and result["failed"] == 0
    assert len(children) == 2 * len(result["ops"])      # a cold and a warm pass
    pids = [child.pid for child in children]
    assert len(set(pids)) == len(pids)
    assert all(child.report["pid"] == child.pid for child in children)
    spans = sorted((child.t_spawn, child.t_exit) for child in children)
    assert all(prev[1] <= nxt[0] for prev, nxt in zip(spans, spans[1:]))


def _session(workload, seed, tmp_path):
    plan = workloads.make_plan(workload, seed, SMALL[workload])
    return run.Session(ROOT, plan, str(tmp_path)), plan.cases[0]


def test_gate_catches_a_hand_edited_cache_line(tmp_path):
    session, case = _session("int_triangle_cache", 5, tmp_path)
    _, failure, cold, _ = session.run_pass(case, str(tmp_path), "cold", False)
    assert failure is None
    _, failure, warm, _ = session.run_pass(case, str(tmp_path), "warm", False)
    assert failure is None and warm == cold

    path = tmp_path / "t.jsonl"
    records = [json.loads(line) for line in path.read_text().splitlines()]
    next(r for r in records if (r["n"], r["k"]) == (3, 3))["value"] = "999"
    path.write_text("".join(json.dumps(r, sort_keys=True) + "\n" for r in records))

    child, failure, warm, _ = session.run_pass(case, str(tmp_path), "edited", False)
    assert child.report["rc"] == 0                    # the CLI replays the edit
    assert "3  3  999" in warm.splitlines()
    assert failure is not None and "999" in failure


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_op_accounts_for_its_wall_time(workload, tmp_path):
    session, case = _session(workload, 7, tmp_path)
    calls = {}
    for name in session.plan.passes:
        child, failure, _, (header, arrays) = session.run_pass(
            case, str(tmp_path), name, True)
        assert failure is None
        stats = tracer.span_stats(header, arrays)
        self_total = sum(self_s for _, self_s in stats["spans"].values())
        wall = child.report["wall_s"]
        assert header["wall_s"] == wall
        assert (self_total + stats["tracer_s"] + stats["driver_s"]
                == pytest.approx(wall, abs=1e-6))
        assert all(self_s >= -1e-6 for _, self_s in stats["spans"].values())
        assert stats["driver_s"] >= 0
        for span, (n, _) in stats["spans"].items():
            calls[span] = calls.get(span, 0) + n

    wl = workloads.workload_definition(workload)
    assert {name for name in wl["stresses"] if calls[name] == 0} == set()
    assert {name for name in wl["bypasses"] if calls[name] > 0} == set()


def test_warm_pass_is_spent_in_load_cache(tmp_path):
    plan = workloads.make_plan("int_triangle_cache", 9, {"pool": 1})   # full size
    session, case = run.Session(ROOT, plan, str(tmp_path)), plan.cases[0]
    session.run_pass(case, str(tmp_path), "cold", False)
    _, failure, _, (header, arrays) = session.run_pass(case, str(tmp_path), "warm", True)
    assert failure is None
    spans = tracer.span_stats(header, arrays)["spans"]
    assert spans["cli.load_cache"][0] == 1
    assert max(spans, key=lambda name: spans[name][1]) == "cli.load_cache"
    assert all(spans[name][0] == 0 for name in
               ("ring.scalar_div", "ring.scalar_mul", "binomials.binomial",
                "binomials.factorial", "sequences.term"))
    assert header["counters"]["cells_appended"] == 0


def test_benchmark_json_matches_the_driver():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    defs = workloads.load_definitions()["workloads"]
    assert [(w["name"], w["why"]) for w in bench["workloads"]] == [
        (w["name"], w["why"]) for w in defs]
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == tracer.PER_LAYER


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "suite", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
