"""`import nala` and every CLI command but block-demo never load scipy.

scipy.special takes ~0.3 s to import, more than the rest of nala together,
so attention.gelu, the only user (erf), imports it on its first call; the
entropy commands take their logs from numpy.  Each case runs in a fresh
interpreter, because this test process has loaded scipy already.
"""

import os
import pathlib
import subprocess
import sys

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"

# runs {statement}, then prints on its last line whether any scipy module is loaded
_PROBE = """
import sys
{statement}
print(any(name == "scipy" or name.startswith("scipy.") for name in sys.modules))
"""


def _scipy_loaded(statement, cwd):
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE.format(statement=statement)],
        env=env, cwd=cwd, capture_output=True, text=True, check=True,
    )
    return proc.stdout.splitlines()[-1] == "True"


def _dispatch(command):
    """A statement running one CLI command with its defaults, its output to a file."""
    return f"import nala.cli\nassert nala.cli.parse_and_dispatch([{command!r}, '--out', 'o']) == 0"


@pytest.mark.parametrize("statement", [
    "import nala",
    _dispatch("grad-check"),
    _dispatch("equiv-check"),
    _dispatch("entropy-scan"),
    _dispatch("verify-theorems"),
], ids=["import", "grad-check", "equiv-check", "entropy-scan", "verify-theorems"])
def test_scipy_not_loaded(statement, tmp_path):
    assert not _scipy_loaded(statement, tmp_path)


def test_block_demo_loads_scipy_for_erf(tmp_path):
    # the probe can see scipy: the block's GELU needs erf
    assert _scipy_loaded(_dispatch("block-demo"), tmp_path)
