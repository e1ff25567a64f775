"""Run one slicethin CLI call with the benchmark's span wrappers installed.

Usage: python perfbench/traced_cli.py SPANS_JSON CLI_ARGS...

Installs the wrappers of ``tracing.py`` in this process, calls
``slicethin.cli.main`` with CLI_ARGS, writes the recorded spans to
SPANS_JSON and exits with the CLI's exit code.
"""

import sys

import tracing


def main():
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = tracing.Tracer()
    tracing.install(tracer)
    import slicethin.cli

    try:
        code = slicethin.cli.main(argv)
    finally:
        tracer.dump(spans_path)
    sys.exit(code)


if __name__ == "__main__":
    main()
