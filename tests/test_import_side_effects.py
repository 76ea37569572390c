"""``import repro`` must stay side-effect-light: no disk I/O beyond imports.

The engine subsystem has two tempting places to touch the filesystem at
import time — the pipeline fingerprint (hashes module sources) and the
verdict store (``REPRO_COMPILE_STORE``).  Both are deferred to first use;
this test pins that, so a serving binary can import the library in a
read-only container and a CLI does not pay disk reads it never asked
for.

Methodology: a fresh subprocess installs a ``sys.addaudithook`` *before*
importing, records every ``open`` audit event, then imports ``repro``.  The
import may read code (``.py``/``.pyc`` under the interpreter prefix, the
source tree, site-packages) — anything else, and any write-mode open at
all, fails the test.  Bytecode writing is disabled with ``-B`` so the
process is deterministic about its own writes.
"""

import os
import subprocess
import sys

SRC = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", "src"))

_PROBE = r"""
import json
import sys

events = []

def hook(name, args):
    if name == "open":
        path, mode = args[0], args[1]
        events.append((str(path), "" if mode is None else str(mode)))

sys.addaudithook(hook)

import repro
import repro.engine  # the subsystem under suspicion

# Prove the engine is importable-but-idle: creating the default session must
# not have opened anything either (it is part of `import repro`).
print(json.dumps(events))
"""


def _allowed_read_roots():
    import numpy

    roots = [
        sys.prefix,
        sys.base_prefix,
        getattr(sys, "exec_prefix", sys.prefix),
        SRC,
        os.path.dirname(os.path.dirname(numpy.__file__)),  # site-packages
    ]
    return tuple(os.path.realpath(root) for root in roots)


def test_import_repro_does_no_stray_disk_io():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    out = subprocess.run(
        [sys.executable, "-B", "-c", _PROBE],
        capture_output=True,
        text=True,
        env=env,
        timeout=180,
    )
    assert out.returncode == 0, out.stderr

    import json

    events = json.loads(out.stdout.strip().splitlines()[-1])
    assert events, "audit hook saw no opens at all — probe is broken"

    writes = [
        (path, mode)
        for path, mode in events
        if any(flag in mode for flag in ("w", "a", "x", "+"))
    ]
    assert not writes, f"import repro wrote to disk: {writes}"

    roots = _allowed_read_roots()
    strays = [
        (path, mode)
        for path, mode in events
        if path
        and os.path.isabs(path)
        and not os.path.realpath(path).startswith(roots)
    ]
    assert not strays, f"import repro read outside code locations: {strays}"


_DECIDE_PROBE = r"""
import sys

import repro
from repro.core.parser import parse
from repro.engine import NKAEngine

engine = NKAEngine(store=False)
pairs = [
    ("(a b)* a", "a (b a)*"),
    ("a + a", "a"),
    ("1* a", "a 1*"),
    ("(1 + a)*", "a*"),
    ("1* ((a + b)* a (a + b) (a + b))", "(a + b)* a (a + b) (a + b)"),
]
parsed = [(parse(left), parse(right)) for left, right in pairs]
verdicts = [engine.equal(left, right) for left, right in parsed]
assert verdicts == [True, False, True, False, False], verdicts
batched = NKAEngine(store=False).equal_many_detailed(parsed)
assert [result.equal for result in batched] == verdicts, batched
print("numpy" in sys.modules, "multiprocessing" in sys.modules)
"""


def test_deciding_never_imports_numpy():
    """The decision pipeline is pure python and in-process: compiling and
    deciding, ∞-heavy pairs and batches included, must pull neither numpy
    nor multiprocessing into the process."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    out = subprocess.run(
        [sys.executable, "-c", _DECIDE_PROBE],
        capture_output=True,
        text=True,
        env=env,
        timeout=180,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip().splitlines()[-1] == "False False"
