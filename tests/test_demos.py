"""Smoke test: every demo script runs to completion against `src/`.

The demos import public names of the package; a rename or removal that
no unit test exercises still breaks them, so each one runs here in its
own interpreter and must exit 0. Runtime, deprecation and future warnings
are errors there, so a demo that leaks one fails instead of printing it.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
WARNINGS_AS_ERRORS = (
    "-W", "error::RuntimeWarning",
    "-W", "error::DeprecationWarning",
    "-W", "error::FutureWarning",
)


def test_demos_are_found():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_exits_zero(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run(
        [sys.executable, *WARNINGS_AS_ERRORS, str(demo)],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
