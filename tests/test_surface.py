"""The public surface: tcmicro.__all__ is exactly the list the README gives,
and importing the package loads numpy and the standard library only."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import tcmicro

ROOT = Path(__file__).resolve().parent.parent
SURFACE_MARKER = "`tcmicro.__all__` is the supported surface"


def readme_surface() -> set[str]:
    """The backquoted names of the README's surface list: the bullets that
    follow the marker sentence, up to the first blank line after them."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    start = text.index(SURFACE_MARKER)
    first_bullet = text.index("\n- ", start)
    block = text[first_bullet : text.index("\n\n", first_bullet)]
    return set(re.findall(r"`([A-Za-z_]\w*)`", block))


def test_all_is_the_readme_surface():
    assert len(tcmicro.__all__) == len(set(tcmicro.__all__))
    assert set(tcmicro.__all__) == readme_surface()
    for name in tcmicro.__all__:
        assert getattr(tcmicro, name) is not None


def test_import_loads_numpy_and_the_standard_library_only(tmp_path):
    script = (
        "import json, sys\n"
        "before = set(sys.modules)\n"
        "import tcmicro\n"
        "print(json.dumps(sorted({m.split('.')[0] for m in set(sys.modules) - before})))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    out = subprocess.run(
        [sys.executable, "-c", script], cwd=tmp_path, env=env,
        capture_output=True, text=True, check=True, timeout=120,
    ).stdout
    loaded = set(json.loads(out))
    assert not loaded & {"scipy", "hypothesis", "pytest", "oracles", "util"}
    assert loaded - set(sys.stdlib_module_names) <= {"numpy", "tcmicro"}
