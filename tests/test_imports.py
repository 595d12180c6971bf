"""The runtime dependency set: importing the package adds numpy and nothing else
outside the standard library."""

import os
import subprocess
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
TOP_LEVEL = "import sys; print(' '.join(sorted({m.partition('.')[0] for m in sys.modules})))"


def top_level_modules(prelude):
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run([sys.executable, "-c", prelude + "; " + TOP_LEVEL], env=env,
                         capture_output=True, text=True, check=True, timeout=60)
    return set(out.stdout.split())


def test_package_imports_only_numpy_beyond_stdlib():
    bare = top_level_modules("pass")
    loaded = top_level_modules("import edlkit, edlkit.cli, edlkit.oracle")
    assert "edlkit" in loaded
    extra = loaded - bare - set(sys.stdlib_module_names) - {"edlkit", "numpy"}
    assert not extra, sorted(extra)
