"""One fresh fplab process: import the CLI, optionally install the outside
tracer, call `fplab.cli.main` once and write what it cost as JSON.

    python3 perfbench/child.py RESULT.json 0|1 [fplab argv ...]

With no fplab argv the process only imports (a set-up probe).  Imports that
are not fplab's come after the `T_READY` stamp, so set-up time is the
interpreter plus `import fplab.cli`, as a real CLI call pays it.
"""

import time

import fplab.cli

T_READY = time.clock_gettime(time.CLOCK_MONOTONIC)

import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402


def main():
    result_path, trace, argv = sys.argv[1], sys.argv[2] == "1", sys.argv[3:]
    result = {"t_ready": T_READY, "numpy": sys.modules["numpy"].__version__}
    if argv:
        tracer = None
        if trace:
            import tracer as tracing

            tracer = tracing.Tracer()
            result["wrapped"], result["rebound"] = tracing.install(tracer)
        t0 = time.perf_counter()
        try:
            rc = fplab.cli.main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 2
        result["wall_s"] = time.perf_counter() - t0
        result["rc"] = rc
        if tracer is not None:
            tracer.active = False
            spans = tracer.spans()
            result["layers"] = tracing.summarize(spans)
            result["run_sweep_s"] = tracing.span_duration(spans, "suites.run_sweep")
            result["spans"] = len(spans)
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    result["maxrss_mb"] = max(own.ru_maxrss, kids.ru_maxrss) / 1024
    result["children_cpu_s"] = kids.ru_utime + kids.ru_stime
    with open(result_path, "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
