"""One traced ``partialreg`` CLI op in a fresh interpreter.

Usage (from ``run.py``, with ``PYTHONPATH`` pointing at ``src``)::

    python3 perfbench/cli_traced.py SPANS_JSON OP_ID <partialreg arguments>

Imports ``partialreg.cli``, installs the tracer's wrappers, runs
``partialreg.cli.main`` on the arguments and exits with its code.  The
spans and per-layer metrics of the op are written to ``SPANS_JSON`` when
it ends.
"""

from __future__ import annotations

import json
import sys

import partialreg.cli

from tracer import Tracer


def main(argv: list[str]) -> int:
    spans_path, op_id, cli_args = argv[0], int(argv[1]), argv[2:]
    tracer = Tracer()
    tracer.install()
    tracer.begin_op(op_id)
    try:
        code = partialreg.cli.main(cli_args)
    except SystemExit as exc:  # argparse usage errors
        code = exc.code if isinstance(exc.code, int) else 2
    finally:
        tracer.uninstall()
        sys.stdout.flush()
    with open(spans_path, "w", encoding="utf-8") as handle:
        json.dump({"metrics": tracer.end_op(), "spans": tracer.spans}, handle)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
