"""Load bgrank from the checkout's src/ and time the import.

Every benchmark entry point calls load() before importing anything else,
so the standard-library modules bgrank needs are not already loaded and
the import is timed as a plain `bgrank` invocation pays it.
"""

import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


class ProgramMissing(Exception):
    pass


def load() -> float:
    """Import bgrank.cli (and with it every layer) from src/; return seconds taken."""
    if not os.path.isfile(os.path.join(SRC, "bgrank", "__init__.py")):
        raise ProgramMissing(f"no bgrank package under {SRC}; run from a full checkout")
    sys.path.insert(0, SRC)
    started = time.perf_counter()
    import bgrank.cli  # noqa: F401

    return time.perf_counter() - started


def caches() -> list:
    """Every lru_cache-wrapped function in the bgrank modules, found by its cache_clear."""
    found = {}
    for name, module in list(sys.modules.items()):
        if name == "bgrank" or name.startswith("bgrank."):
            for value in vars(module).values():
                if callable(getattr(value, "cache_clear", None)):
                    found[id(value)] = value
    return list(found.values())
