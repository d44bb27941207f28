"""Run one bgrank command the way `python -m bgrank` does, with layer tracing.

Usage: PYTHONPATH=src:perfbench python -m child <bgrank arguments...>

The tracer counters and the seconds the bgrank import took go to stderr
as one line after a marker, before any traceback the command raises, and
the exit code is the command's own.
"""

import sys

import program

import_s = program.load()

import json  # noqa: E402

import bgrank.cli  # noqa: E402
from tracer import STATS_MARK, Tracer  # noqa: E402

caches = program.caches()
tracer = Tracer()
tracer.install()
try:
    code = bgrank.cli.main(sys.argv[1:])
finally:
    tracer.uninstall()
    for fn in caches:
        tracer.note_cache(fn)
    print(STATS_MARK + json.dumps(dict(tracer.raw(), import_s=import_s)), file=sys.stderr, flush=True)
sys.exit(code)
