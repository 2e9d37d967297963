"""Start-up: what a fresh interpreter loads, and the package's lazy exports.

In-process tests cannot see a module that fails to load on time, because
other tests have loaded every module already, so the import graph and the
exit-2 mapping are checked in fresh interpreters here.
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import fermatsym

SRC = Path(__file__).resolve().parent.parent / "src"
ENV = dict(os.environ, PYTHONPATH=str(SRC))

# run a command in a fresh interpreter; print the fermatsym modules loaded
# once the parser is built, and once the command has run
LOADED = """
import contextlib, io, json, sys
import fermatsym.cli

def loaded():
    return sorted(m for m in sys.modules if m.split(".")[0] == "fermatsym")

fermatsym.cli.build_parser()
before = loaded()
with contextlib.redirect_stdout(io.StringIO()):
    code = fermatsym.cli.main(sys.argv[1:])
print(json.dumps([before, code, loaded()]))
"""

LOCAL = ["fermatsym.localobs", "fermatsym.ntkernel"]


@pytest.mark.parametrize(
    "argv, modules",
    [
        (["sweep", "--eq", "3,4,5", "--pmin", "11", "--pmax", "30"], LOCAL),
        (["obstruct", "--eq", "3,4,5", "--p", "11"], LOCAL),
        (["local", "--eq", "3,4,5", "--p", "7", "--ell", "29"], LOCAL),
        (["density", "(-2)=-1 & (2)=-1"], ["fermatsym.ntkernel", "fermatsym.qrsolver", "fermatsym.symplectic"]),
        (["curve", "120b1"], ["fermatsym.curvedb", "fermatsym.ecmodel", "fermatsym.ntkernel"]),
        (
            ["analyze", "--eq", "3,8,21"],
            ["fermatsym.curvedb", "fermatsym.ecmodel", "fermatsym.freypipe", "fermatsym.ntkernel",
             "fermatsym.qrsolver", "fermatsym.symplectic"],
        ),
    ],
    ids=["sweep", "obstruct", "local", "density", "curve", "analyze"],
)
def test_each_command_loads_only_its_modules(argv, modules):
    done = subprocess.run(
        [sys.executable, "-c", LOADED, *argv], env=ENV, capture_output=True, text=True, check=True
    )
    before, code, after = json.loads(done.stdout)
    assert before == ["fermatsym", "fermatsym.cli"]
    assert code == 0
    assert after == sorted(["fermatsym", "fermatsym.cli", *modules])


# whether json is loaded after start-up, after the command in text mode, and
# after it again with --json
JSON_LOADED = """
import contextlib, io, sys
import fermatsym.cli

loaded = ["json" in sys.modules]
fermatsym.cli.build_parser()
for flags in ([], ["--json"]):
    with contextlib.redirect_stdout(io.StringIO()):
        fermatsym.cli.main(sys.argv[1:] + flags)
    loaded.append("json" in sys.modules)
print(*loaded)
"""


@pytest.mark.parametrize(
    "argv",
    [
        ["sweep", "--eq", "3,4,5", "--pmin", "11", "--pmax", "30"],
        ["obstruct", "--eq", "3,4,5", "--p", "11"],
        ["local", "--eq", "3,4,5", "--p", "7", "--ell", "29"],
        ["density", "(-2)=-1 & (2)=-1"],
        ["curve", "120b1"],
        ["analyze", "--eq", "3,8,21"],
    ],
    ids=lambda argv: argv[0],
)
def test_json_is_loaded_only_to_write_json(argv):
    done = subprocess.run(
        [sys.executable, "-c", JSON_LOADED, *argv], env=ENV, capture_output=True, text=True, check=True
    )
    assert done.stdout.split() == ["False", "False", "True"]


@pytest.mark.parametrize(
    "argv",
    [
        ["local", "--eq", "3,4,5", "--p", "7", "--ell", "1"],
        ["obstruct", "--eq", "3,4,5", "--p", "2"],
        ["curve", "nosuch"],
        ["analyze", "--eq", "6,8,10"],
        ["density", "(99999999999999999999999999999999999)=1"],
        ["analyze", "--eq", "3,8,21", "--scenarios", "MISSING"],
    ],
    ids=["local", "obstruct", "curve", "analyze", "density", "missing-file"],
)
def test_data_errors_exit_2_in_a_fresh_interpreter(argv, tmp_path):
    argv = [str(tmp_path / "missing.txt") if a == "MISSING" else a for a in argv]
    done = subprocess.run(
        [sys.executable, "-m", "fermatsym.cli", *argv], env=ENV, capture_output=True, text=True
    )
    assert done.returncode == 2
    assert done.stderr.startswith("error: ")
    assert "Traceback" not in done.stderr


class TestLazyExports:
    def test_every_export_is_its_home_modules_object(self):
        for name in fermatsym.__all__:
            value = getattr(fermatsym, name)
            home = importlib.import_module(value.__module__)
            assert home.__name__.split(".")[0] == "fermatsym", name
            assert getattr(home, name) is value, name
        assert len(set(fermatsym.__all__)) == len(fermatsym.__all__)

    def test_star_import_binds_every_export(self):
        namespace = {}
        exec("from fermatsym import *", namespace)
        for name in fermatsym.__all__:
            assert namespace[name] is getattr(fermatsym, name), name

    def test_unknown_name(self):
        with pytest.raises(AttributeError, match="nosuch"):
            fermatsym.nosuch  # noqa: B018
        assert not hasattr(fermatsym, "nosuch")

    def test_dir_lists_the_exports(self):
        names = dir(fermatsym)
        assert "__all__" in names
        assert set(fermatsym.__all__) <= set(names)

    def test_submodules_import_by_name(self):
        from fermatsym import cli, localobs

        assert cli.__name__ == "fermatsym.cli"
        assert localobs.__name__ == "fermatsym.localobs"
