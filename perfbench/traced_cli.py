"""Run the learnpath CLI with the benchmark's tracer installed.

    python3 perfbench/traced_cli.py TRACE_DIR RUN_ID <learnpath CLI arguments>

learnpath must be importable (PYTHONPATH=src). Spans of this process and
of its pool workers land in TRACE_DIR/spans-<pid>.jsonl. The exit code is
the CLI's.
"""

import sys
import time

t_start = time.perf_counter()

import tracer  # noqa: E402  (sits next to this script)


def main() -> int:
    trace_dir, run_id, cli_args = sys.argv[1], sys.argv[2], sys.argv[3:]
    import learnpath.cli
    t_imported = time.perf_counter()
    tr = tracer.install(trace_dir, run_id)
    tr.record("setup.import", "perfbench", t_start, t_imported)
    main_span = tr.span(learnpath.cli.main, "setup.cli_main", "perfbench")
    try:
        return main_span(cli_args)
    finally:
        tr.flush()


if __name__ == "__main__":
    sys.exit(main())
