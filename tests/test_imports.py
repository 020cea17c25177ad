"""Which plembed modules each entry point loads, and the lazy package namespace.

Every check runs in a fresh interpreter, since a module loaded by an earlier
test stays in ``sys.modules``.
"""

import argparse
import json
import subprocess
import sys

import pytest

from plembed import cli

from conftest import TETRA_OFF

K4 = '{"edges": [["a", "b", 1], ["a", "c", 1], ["a", "d", 1], ["b", "c", 1], ["b", "d", 1], ["c", "d", 1]]}'

# the plembed modules loaded before and after `cli.main(argv)`, and its exit status
MAIN = """
import contextlib, io, json, sys
import plembed.cli
loaded = lambda: sorted(m for m in sys.modules if m.partition(".")[0] == "plembed")
before = loaded()
with contextlib.redirect_stdout(io.StringIO()):
    status = plembed.cli.main(sys.argv[1:])
print(json.dumps([before, sorted(set(loaded()) - set(before)), status]))
"""

AT_IMPORT = ["plembed", "plembed.cli", "plembed.errors"]
QUADRUPLE = ["plembed.quadruple", "plembed.spaceform"]
SKELETON = ["plembed.quadruple", "plembed.skeleton", "plembed.spaceform"]
QCBOUNDS = ["plembed.mesh", "plembed.qcbounds"]
BZELEMENT = ["plembed.bzelement", "plembed.mesh"]
CURVE = ["plembed.curve"]

# each subcommand, and the modules it adds to those of `import plembed.cli`
SUBCOMMANDS = [
    (["wald", "--quadruple", "1,1,1,1,1,1"], QUADRUPLE),
    (["embed-check", "--quadruple", "1,1,1,1,1,1", "--kappa", "1"], QUADRUPLE),
    (["check-local", "--graph", "{graph}", "--vertex", "a", "--kappa", "0"], SKELETON),
    (["check-global", "--graph", "{graph}", "--kappa", "0"], SKELETON),
    (["curve-curvature", "--triple", "1,1,1.5"], CURVE),
    (["qc-bound", "--mesh", "{mesh}"], QCBOUNDS),
    (["link-volume", "--mesh", "{mesh}", "--vertex", "0"], QCBOUNDS),
    (["wedge", "--n", "3", "--k", "1", "--angles", "1.0"], QCBOUNDS),
    (["face-count-bound", "--faces", "6", "--n", "3"], QCBOUNDS),
    (["index-bound", "--n", "3", "--inner", "2"], QCBOUNDS),
    (["fold", "--theta", "3.14", "--point", "1,0.5"], BZELEMENT),
    (["bz-element", "--template", "1,1,1", "--base", "0.9,0.9,0.9"], BZELEMENT),
]


def run_python(code: str, *args: str) -> str:
    result = subprocess.run([sys.executable, "-c", code, *args], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    return result.stdout


@pytest.mark.parametrize(
    "statement, want",
    [("import plembed", ["plembed"]), ("import plembed.cli", AT_IMPORT), ("from plembed import cli", AT_IMPORT)],
)
def test_import_loads_no_computing_module(statement, want):
    code = f"{statement}; import sys; print(sorted(m for m in sys.modules if m.partition('.')[0] == 'plembed'))"
    assert run_python(code).strip() == str(want)


def test_every_subcommand_is_listed():
    (sub,) = [a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    assert sorted(argv[0] for argv, _ in SUBCOMMANDS) == sorted(sub.choices)


@pytest.mark.parametrize("argv, added", SUBCOMMANDS, ids=[argv[0] for argv, _ in SUBCOMMANDS])
def test_subcommand_loads_the_modules_it_runs(argv, added, tmp_path):
    graph, mesh = tmp_path / "k4.json", tmp_path / "tetra.off"
    graph.write_text(K4)
    mesh.write_text(TETRA_OFF)
    argv = [a.format(graph=graph, mesh=mesh) for a in argv]
    before, loaded, status = json.loads(run_python(MAIN, *argv))
    assert (before, loaded, status) == (AT_IMPORT, added, 0)


def test_every_public_name_is_its_home_modules_object():
    code = """
import sys, plembed
for name in plembed.__all__:
    obj = getattr(plembed, name)
    home = sys.modules[obj.__module__]
    assert home.__name__.startswith("plembed.") and getattr(home, name) is obj, name
assert set(plembed.__all__) <= set(dir(plembed))
assert len(set(plembed.__all__)) == len(plembed.__all__) == 51
print("ok")
"""
    assert run_python(code) == "ok\n"


def test_star_import_binds_every_public_name():
    code = """
import plembed
namespace = {}
exec("from plembed import *", namespace)
missing = [name for name in plembed.__all__ if namespace.get(name) is not getattr(plembed, name)]
print(missing, sorted(set(namespace) - {"__builtins__"}) == plembed.__all__)
"""
    assert run_python(code) == "[] True\n"


def test_unknown_name_raises_attribute_error():
    code = """
import plembed
try:
    plembed.nope
except AttributeError as e:
    print(e)
print(hasattr(plembed, "nope"), hasattr(plembed, "mesh"))
"""
    assert run_python(code) == "module 'plembed' has no attribute 'nope'\nFalse True\n"


def test_submodule_after_the_cli_import():
    # the benchmark's link-query set-up: `import plembed.cli`, then a mesh parsed through the package
    code = "import sys, plembed.cli; m = plembed.mesh.parse_off(sys.argv[1]); print(len(m.vertices), 'plembed.qcbounds' in sys.modules)"
    assert run_python(code, TETRA_OFF) == "4 False\n"
