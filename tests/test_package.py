import os
import re
import subprocess
import sys
from pathlib import Path

import nfradar

ROOT = Path(__file__).resolve().parents[1]


def test_all_names_resolve():
    # `from nfradar import *` raises on a name in __all__ that the package
    # no longer defines
    assert [name for name in nfradar.__all__
            if not hasattr(nfradar, name)] == []
    assert len(set(nfradar.__all__)) == len(nfradar.__all__)


def test_readme_quick_start():
    # the README's first python block runs as documented, in a fresh
    # interpreter with the package from src/
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    code = re.search(r"```python\n(.*?)```", readme, re.S).group(1)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120,
                          check=True)
    assert round(float(done.stdout), 6) == 3.999822
