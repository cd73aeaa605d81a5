"""``python -m qwitness.cli`` with the span recorder installed.

Usage: ``python traced_cli.py SPAN_FILE ARGS...``. Runs the CLI on ARGS
with the package's public functions wrapped, writes the spans to
SPAN_FILE, and exits with the CLI's exit code. stdout is the CLI's own.
"""

import sys

import qwitness.cli as cli

import spans


def main() -> int:
    span_file, argv = sys.argv[1], sys.argv[2:]
    recorder = spans.Recorder()
    recorder.install()
    try:
        code = cli.main(argv)
    finally:
        recorder.uninstall()
        recorder.write(span_file)
    return code


if __name__ == "__main__":
    sys.exit(main())
