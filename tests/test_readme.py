"""The README's library example runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_runs(capsys):
    """The first python block of the README: a labeled n = 150 run."""
    code = re.search(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S).group(1)
    exec(compile(code, str(README), "exec"), {})
    ari, nmi, neg_log10_p = (float(v) for v in capsys.readouterr().out.split())
    assert -1.0 <= ari <= 1.0 and 0.0 <= nmi <= 1.0 and neg_log10_p >= 0.0
