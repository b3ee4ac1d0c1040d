"""Traced stand-in for the ``goodsemi`` entry point, used by the cli workload.

Usage: python3 perfbench/cli_shim.py SPAN_FILE <goodsemi arguments...>

Times ``import goodsemi.cli``, wraps the library boundaries and
``cli.main``, runs the command, and writes the spans to SPAN_FILE.  The
exit code and output are those of the real entry point.
"""

import json
import sys
import time

t0 = time.perf_counter()
import goodsemi.cli  # noqa: E402

import_s = time.perf_counter() - t0

import tracing  # noqa: E402

tracer = tracing.Tracer()
tracer.install(tracing.BOUNDARIES + [tracing.CLI_BOUNDARY])
try:
    rc = goodsemi.cli.main(sys.argv[2:])
finally:
    with open(sys.argv[1], "w", encoding="utf-8") as fh:
        json.dump({"spans": tracer.spans, "import_s": import_s, "missing": tracer.missing}, fh)
sys.exit(rc)
