"""One benchmark op in a fresh interpreter: `python3 child.py '<job json>'`.

The child imports `hbinom.cli` from `<root>/src`, parses its job and writes
"ready" to stdout; that is the end of its set-up.  A job without an argv is
a set-up probe and stops there.  Otherwise it runs `hbinom.cli.main(argv)`
with stdout and stderr captured, times that call, writes the captured stdout
to `job["stdout_path"]` and prints one JSON line with the result.  A traced
job wraps the layers before it reports ready and dumps its spans at the end.
"""

import contextlib
import io
import json
import os
import resource
import sys
import time


def peak_rss_kb() -> int:
    """Peak RSS of this interpreter.  Linux carries `ru_maxrss` over from
    the forked driver across exec, so read the post-exec high-water mark."""
    try:
        with open("/proc/self/status", "r", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main() -> int:
    job = json.loads(sys.argv[1])
    src = os.path.join(job["root"], "src")
    sys.path.insert(0, src)
    from hbinom import cli
    if not os.path.abspath(cli.__file__).startswith(src + os.sep):
        raise SystemExit(f"hbinom imported from {cli.__file__}, not from {src}")
    recorder = None
    if job.get("trace"):
        import tracer
        recorder = tracer.Recorder()
        tracer.install(recorder)
    proto = sys.stdout
    proto.write("ready\n")
    proto.flush()
    if job.get("argv") is None:
        return 0

    out, err = io.StringIO(), io.StringIO()
    error = None
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(job["argv"])
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 1
    except Exception as exc:  # the op failed; report it, the driver counts it
        rc, error = None, repr(exc)
    wall = time.perf_counter() - t0
    rss_kb = peak_rss_kb()

    with open(job["stdout_path"], "w", encoding="utf-8") as fh:
        fh.write(out.getvalue())
    if recorder is not None:
        recorder.dump(job["spans_path"], job["op"], wall)
    proto.write(json.dumps({"pid": os.getpid(), "rc": rc, "error": error,
                            "wall_s": wall, "rss_kb": rss_kb,
                            "stderr": err.getvalue()[-500:]}) + "\n")
    proto.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
