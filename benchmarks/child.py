"""One benchmark child: runs a ``bmoforge`` CLI experiment in this process.

Usage: child.py RESULT_JSON TRACE(0|1) KIND --config ... (the CLI arguments)

The CLI's own ``main`` does the work. The child only times the two calls the
end-to-end metrics need, by attribute replacement in ``bmoforge.cli``: when
the config is parsed (the end of set-up) and how long ``run_experiment``
takes. With TRACE=1 it also installs the span tracer first. It writes its
measurements to RESULT_JSON and exits with the CLI's exit code.
"""

from __future__ import annotations

import json
import resource
import sys
import time


def peak_rss_kb() -> int:
    """High-water RSS of this process image. ``ru_maxrss`` would also count
    the parent's memory, which the child's image replaced at exec."""
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def main(argv: list[str]) -> int:
    result_path, trace, cli_args = argv[0], argv[1] == "1", argv[2:]
    import bmoforge.cli as cli

    tracer = None
    if trace:
        import spans

        tracer = spans.Tracer()
        spans.install(tracer)
    marks = {}
    parse, run = cli.parse_config_file, cli.run_experiment

    def timed_parse(path):
        config = parse(path)
        marks["parsed_at"] = time.clock_gettime(time.CLOCK_MONOTONIC)
        return config

    def timed_run(config):
        start = time.perf_counter()
        manifest = run(config)
        marks["run_s"] = time.perf_counter() - start
        return manifest

    cli.parse_config_file, cli.run_experiment = timed_parse, timed_run
    code = cli.main(cli_args)
    usage = resource.getrusage(resource.RUSAGE_SELF)
    record = dict(marks, exit=code, cpu_s=usage.ru_utime + usage.ru_stime,
                  peak_rss_kb=peak_rss_kb())
    if tracer is not None:
        record["trace"] = tracer.dump()
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
