"""Every exported name resolves, in the package and in each module."""

import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import lipem

MODULES = sorted(
    info.name for info in pkgutil.iter_modules(lipem.__path__) if info.name != "__main__"
)


@pytest.mark.parametrize("module", ["lipem", *(f"lipem.{m}" for m in MODULES)])
def test_every_name_in_all_resolves(module):
    mod = importlib.import_module(module)
    missing = [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
    assert missing == []



# what only the judge needs: its HTTP client and thread pool, and the
# modules those load
NETWORK_STACK = (
    "urllib.request", "http.client", "ssl", "email", "socket",
    "concurrent.futures", "logging",
)


def test_the_judge_and_its_network_stack_load_on_first_use(tmp_path):
    # a fresh interpreter, since other tests import the judge. numpy's
    # random module loads secrets, hmac and hashlib, so those are
    # checked only before the command runs
    script = f"""
import json, sys
import lipem
early = {NETWORK_STACK + ("secrets", "hmac", "hashlib")!r}
on_import = [m for m in early if m in sys.modules]
code = lipem.dispatch(["bench", "gaussian", "--config", sys.argv[1], "--out", sys.argv[2]])
on_run = [m for m in {NETWORK_STACK!r} if m in sys.modules]
same = lipem.HttpTransport is lipem.judge.HttpTransport
print(json.dumps([on_import, code, on_run, same, "urllib.request" in sys.modules]))
"""
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"experiment": {"replications": 1}}))
    src = str(Path(lipem.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-c", script, str(config), str(tmp_path / "reports")],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src), timeout=120,
    )
    assert done.returncode == 0, done.stderr
    on_import, code, on_run, same, loaded = json.loads(done.stdout.splitlines()[-1])
    assert on_import == [] and on_run == []
    assert code == 0
    assert same and loaded
