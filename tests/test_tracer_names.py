"""The benchmark's tracer (bench/spans.py) wraps zerosum functions by
module and attribute name; a rename in the package would break it
silently, so every name it patches is checked here."""

import runpy
from pathlib import Path

import zerosum

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def test_every_traced_name_resolves():
    # run_path compiles the file without importing it as a module, so no
    # bytecode is written next to it
    patches = runpy.run_path(str(SPANS))["PATCHES"]
    assert patches
    missing = [
        (module, attr)
        for module, attr, _ in patches
        if not callable(getattr(getattr(zerosum, module, None), attr, None))
    ]
    assert missing == []
