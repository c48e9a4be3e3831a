"""Smoke tests of the study scripts and the bench tracer's hooks.

The scripts read the public report types (`RoundReport`, `MetricsTable`),
so a change to those types shows up here rather than in a later study.
The tracer wraps package attributes by name, so a refactor that drops one
(say a by-name import into `protocol`) shows up here rather than only in a
minute-long bench run.  A star import of every module checks that each
`__all__` names only what its module defines, and a scan of the package and
the scripts checks that none reaches into another module's private names.
"""

from __future__ import annotations

import importlib.util
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

import attestfl

ROOT = Path(__file__).resolve().parents[1]

# every module but __main__, which runs the command line when imported
MODULES = sorted(m.name for m in pkgutil.iter_modules(attestfl.__path__) if m.name != "__main__")

# column headers each script must print, where any are pinned
PRINTED = {"run_scaling_sweep.py": ("setup ms/client", "peak RSS MB", "per-client cost ratio")}


@pytest.mark.parametrize(
    "script, args",
    [
        ("run_honest_baseline.py", ["--rounds", "1", "--clients", "2"]),
        ("run_attack_comparison.py", ["--rounds", "1", "--clients", "2"]),
        ("run_scaling_sweep.py", ["--sizes", "2", "3", "--rounds", "1"]),
    ],
)
def test_script_exits_zero(script, args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert all(header in proc.stdout for header in PRINTED.get(script, ()))


def test_bench_tracer_resolves_every_wrapped_name():
    spec = importlib.util.spec_from_file_location("bench_tracer", ROOT / "bench" / "tracer.py")
    bench_tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench_tracer)
    originals = {(owner, attr): owner.__dict__[attr] for owner, attr, _, _ in bench_tracer._targets(attestfl)}
    # construction looks up every wrapped attribute (KeyError if one is
    # gone) and installs nothing; uninstall puts every original back
    tracer = bench_tracer.Tracer(attestfl)
    config = attestfl.harness.parse_config("crypto.key_bits = 1024\nclients = 2\n")
    tracer.install()
    try:
        assert all(owner.__dict__[attr] is not raw for (owner, attr), raw in originals.items())
        attestfl.harness.build_simulation(config)
    finally:
        tracer.uninstall()
    assert all(owner.__dict__[attr] is raw for (owner, attr), raw in originals.items())
    names = [span[0] for span in tracer.spans]
    # one key agreement per client, each computing both halves
    assert names.count("crypto.dh_shared") == 2 * config.clients
    assert names.count("crypto.dh_keygen") == 1 + config.clients


@pytest.mark.parametrize("module", MODULES)
def test_star_import_resolves_every_exported_name(module):
    # a name deleted from a module but left in its __all__ raises here
    exec(f"from attestfl.{module} import *", {})


def test_no_module_uses_another_modules_private_names():
    # tests are exempt: they monkeypatch private names on purpose
    private_use = re.compile(rf"\b(?:{'|'.join(MODULES)})\._[A-Za-z]\w*")
    paths = sorted([*(ROOT / "src" / "attestfl").glob("*.py"), *(ROOT / "scripts").glob("*.py")])
    found = [
        f"{path.relative_to(ROOT)}:{lineno}: {use}"
        for path in paths
        for lineno, line in enumerate(path.read_text().splitlines(), start=1)
        for use in private_use.findall(line)
    ]
    assert found == []
