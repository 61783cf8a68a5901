"""The package imports each layer when it is first used, and the analytic CLI imports no numpy,
and none of the modules that dataclasses or typing would pull in."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import intermod


def test_lazy_exports_are_their_home_modules_objects():
    for name in intermod.__all__:
        obj = getattr(intermod, name)
        assert obj.__module__.startswith("intermod."), name
        assert getattr(importlib.import_module(obj.__module__), name) is obj, name
    assert set(intermod.__all__) <= set(dir(intermod))
    namespace = {}
    exec("from intermod import *", namespace)
    assert {name: namespace[name] for name in intermod.__all__} == {
        name: getattr(intermod, name) for name in intermod.__all__}
    assert intermod.simulator is importlib.import_module("intermod.simulator")
    with pytest.raises(AttributeError, match="no_such_name"):
        intermod.no_such_name  # noqa: B018


# what a scalar subcommand must not load: numpy, and dataclasses or typing with what they import
UNLOADED = ("numpy", "dataclasses", "inspect", "typing", "ast", "dis", "tokenize")


def test_analytic_subcommands_never_import_numpy():
    # -S: no site, whose .pth files may import typing themselves and so hide a regression
    argvs = [["theory"], ["weights"], ["sumrate"], ["sumrate", "--alpha", "0.01,0.1"]]
    code = (
        "import contextlib, io, sys, intermod\n"
        "assert 'intermod.sumrate' not in sys.modules\n"  # so the package's __getattr__ imports it
        "assert intermod.sumrate is sys.modules['intermod.sumrate']\n"
        "from intermod.cli import main\n"
        f"for argv in {argvs!r}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert main(argv) == 0, argv\n"
        f"loaded = sys.modules.keys() & {set(UNLOADED)!r}\n"
        "assert not loaded, loaded\n"
    )
    src = Path(intermod.__file__).resolve().parent.parent
    result = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                            env={**os.environ, "PYTHONPATH": str(src)}, timeout=120)
    assert result.returncode == 0, result.stderr
