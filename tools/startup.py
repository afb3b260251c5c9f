"""Start-up cost of the CLI: how long `import hbinom.cli` takes in a fresh
interpreter, and which modules it loads.

Standard library only, so it runs where pytest is not installed:

    python tools/startup.py [--runs N] > startup.json

Each of the N runs starts a new interpreter with this checkout's `src` first
on `PYTHONPATH`.  The child times the import with `time.perf_counter` and
lists the modules that were not in `sys.modules` before it.  The report gives
the median, the quartiles and every run of the import time and of the whole
child's wall time, the interpreter, whether it may write bytecode (with
`PYTHONDONTWRITEBYTECODE` set every run compiles `src/` again), and the
modules loaded, as sorted JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

# `json` is imported after the modules are listed, so that it counts as
# loaded when the CLI loads it
CHILD = """\
import sys, time
before = set(sys.modules)
t0 = time.perf_counter()
import hbinom.cli
t1 = time.perf_counter()
loaded = sorted(set(sys.modules) - before)
import json
print(json.dumps({"import_s": t1 - t0, "loaded": loaded,
                  "dont_write_bytecode": sys.flags.dont_write_bytecode}))
"""


def _summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median_ms": round(median * 1e3, 2), "q1_ms": round(q1 * 1e3, 2),
            "q3_ms": round(q3 * 1e3, 2),
            "runs_ms": [round(v * 1e3, 2) for v in values]}


def measure(runs: int) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (SRC, env.get("PYTHONPATH"))))
    imports, walls, child = [], [], None
    for _ in range(runs):
        t0 = time.perf_counter()
        out = subprocess.run([sys.executable, "-c", CHILD], env=env, check=True,
                             capture_output=True, text=True, timeout=120)
        walls.append(time.perf_counter() - t0)
        child = json.loads(out.stdout)
        imports.append(child["import_s"])
    return {"python": f"{platform.python_implementation()} {platform.python_version()}",
            "runs": runs,
            "dont_write_bytecode": bool(child["dont_write_bytecode"]),
            "import_hbinom_cli": _summary(imports),
            "child_wall": _summary(walls),
            "loaded_modules": child["loaded"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=9,
                        help="fresh interpreters to time (default 9, at least 2)")
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("--runs must be at least 2")
    sys.stdout.write(json.dumps(measure(args.runs), indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
