"""The repository's pytest settings report a failing test as a failure."""

import subprocess
import sys
import textwrap
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

PROBE = textwrap.dedent('''
    from hypothesis import given, strategies as st


    @given(st.integers())
    def test_fails(x):
        assert x != x


    def test_passes():
        pass
''')


def test_a_failing_hypothesis_test_does_not_abort_the_session(tmp_path):
    """Hypothesis's failure report imports libcst, which imports a deprecated
    name; under ``filterwarnings = ["error"]`` that warning must not turn the
    report into an INTERNALERROR that stops the session."""
    (tmp_path / "test_probe.py").write_text(PROBE)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "-p", "no:cacheprovider",
         "-q", "test_probe.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    out = run.stdout + run.stderr
    assert "INTERNALERROR" not in out, out
    assert run.returncode == 1, out
    assert "1 failed, 1 passed" in out, out
