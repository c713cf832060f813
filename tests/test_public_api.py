"""The package root's exports and the README's Python quick start."""

import json
import re
import subprocess
import sys
from pathlib import Path

import aspectra

from conftest import package_env

README = Path(__file__).resolve().parent.parent / "README.md"

PUBLIC = {
    "NumericTable", "Observation", "AspectPartition", "load_table",
    "fit_linear", "fit_knn", "ConstantModel", "SubprocessModel",
    "correlation_matrix", "group_variables", "group_importance",
    "PermutationConfig", "predict_aspects", "TriplotConfig", "model_triplot",
    "predict_triplot", "render_triplot", "render_aspects",
    "AspectraError", "SchemaMismatch", "SingularDesign", "SubprocessFailure",
}


def test_root_exports_exactly_the_public_names():
    assert sorted(aspectra.__all__) == sorted(PUBLIC)
    assert len(aspectra.__all__) == len(PUBLIC)
    for name in PUBLIC:
        assert getattr(aspectra, name).__module__.startswith("aspectra.")


def test_readme_lists_the_public_names():
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## Public API"):]
    section = section[:section.index("\n## ", 1)]
    assert set(re.findall(r"`(\w+)`", section)) >= PUBLIC


def test_readme_quick_start_runs(capsys):
    text = README.read_text(encoding="utf-8")
    start = text.index("## Python quick start")
    block = re.search(r"```python\n(.*?)```", text[start:], re.S).group(1)
    exec(compile(block, str(README), "exec"), {})
    out = capsys.readouterr().out
    assert "full_model_loss" in out and "contribution" in out


# scipy.stats took about 1.3 s of a 1.45 s import on a 2-core x86_64 machine,
# and xml.sax.saxutils pulled in urllib.request with http, ssl and email;
# every CLI run paid for both
SLOW_IMPORTS = ("scipy", "urllib", "http", "ssl", "email")
NEW_MODULES = """
import json, sys
before = set(sys.modules)
import aspectra, aspectra.cli
print(json.dumps(sorted(set(sys.modules) - before)))
"""


def test_import_loads_no_scipy_or_network_modules():
    # only modules the import itself adds count: a site .pth file may load
    # pathlib, and with it urllib.parse, before any user code runs
    done = subprocess.run([sys.executable, "-c", NEW_MODULES], capture_output=True,
                          text=True, env=package_env(), timeout=120, check=True)
    added = json.loads(done.stdout)
    assert "aspectra.cli" in added
    assert [m for m in added if m.split(".")[0] in SLOW_IMPORTS] == []
