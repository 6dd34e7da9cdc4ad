import ast
import dataclasses
import importlib
import inspect
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conformal_reach import perturb
from conformal_reach.model import ImageTensor

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"


@pytest.mark.skipif(sys.version_info < (3, 11), reason="tomllib needs Python 3.11")
def test_declared_scripts_resolve():
    import tomllib

    scripts = tomllib.loads(PYPROJECT.read_text())["project"].get("scripts", {})
    for name, target in scripts.items():
        module, _, attr = target.partition(":")
        assert callable(getattr(importlib.import_module(module), attr)), name


MODULES = sorted(p.stem for p in (PYPROJECT.parent / "src" / "conformal_reach").glob("*.py"))


def test_package_runs_on_numpy_alone():
    # numpy is the one runtime dependency: importing the whole pipeline in a
    # fresh interpreter loads no scipy module
    probe = (
        "import sys, conformal_reach.verify; "
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
    )
    env = dict(os.environ, PYTHONPATH=str(PYPROJECT.parent / "src"))
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]", out.stdout


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"conformal_reach.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ lists missing names {missing}"


ROOT = PYPROJECT.parent
PACKAGE = ROOT / "src" / "conformal_reach"
# Where a public name must have a caller: the package and the benchmark,
# not counting the benchmark's own tests.
CALLERS = [
    *PACKAGE.glob("*.py"),
    *(p for p in (ROOT / "perfbench").glob("*.py") if not p.name.startswith("test_")),
]


def _reads(path):
    """(name, top-level definition it occurs in) for each name that ``path``
    reads: bare, or as an attribute of a package module (``verify.name``)."""
    tree = ast.parse(path.read_text())
    modules = {"conformal_reach"} | {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module in (None, "conformal_reach")
        for alias in node.names
    }
    for top in tree.body:
        owner = getattr(top, "name", None)
        for node in ast.walk(top):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                yield node.id, owner
            elif isinstance(node, ast.Attribute):
                if ast.unparse(node.value).split(".")[0] in modules:
                    yield node.attr, owner


@pytest.mark.parametrize("name", MODULES)
def test_all_names_have_callers(name):
    own = PACKAGE / f"{name}.py"
    read = {
        read
        for path in CALLERS
        for read, owner in _reads(path)
        if not (path == own and owner == read)
    }
    module = importlib.import_module(f"conformal_reach.{name}")
    unused = [n for n in getattr(module, "__all__", ()) if n not in read]
    assert not unused, f"{name}.__all__ lists names only tests use: {unused}"


# Calls and imports that read or write files. A run's one record is its
# manifest, which the caller keeps; the package persists nothing.
FILE_IO_CALLS = {"open", "np.save", "np.savez", "np.savez_compressed", "np.load"}
FILE_IO_MODULES = {"zipfile", "pickle"}


def _file_io(path):
    """Each call or import in ``path`` that reads or writes a file."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Call):
            used = [ast.unparse(node.func).replace("numpy.", "np.", 1)]
        elif isinstance(node, ast.Import):
            used = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            used = [node.module or ""]
        else:
            continue
        yield from (u for u in used if u in FILE_IO_CALLS or u.split(".")[0] in FILE_IO_MODULES)


def test_package_does_no_file_io():
    found = [f"{path.name}: {use}" for path in sorted(PACKAGE.glob("*.py")) for use in _file_io(path)]
    assert not found, found


def _calls_outside(names, *homes):
    """Each call in the package of a function in ``names`` outside the
    top-level definitions ``homes``, each (module, name)."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            if (path.stem, getattr(top, "name", None)) in homes:
                continue
            for node in ast.walk(top):
                func = getattr(node, "func", None)
                if getattr(func, "id", getattr(func, "attr", None)) in names:
                    found.append(f"{path.name}:{node.lineno}: {ast.unparse(func)}")
    return found


def test_one_sampling_stream():
    # a stage's generator is made and drawn from only inside
    # ``perturb.stage_outputs``, through ``perturb._draw``, the one draw of
    # both laws, which only it and ``sample_lambdas`` call; a second
    # sampling loop or a second draw of a law fails here
    found = _calls_outside({"stage_rng", "sample_lambdas"}, ("perturb", "stage_outputs"))
    found += _calls_outside({"_draw"}, ("perturb", "stage_outputs"), ("perturb", "sample_lambdas"))
    found += _calls_outside({"uniform", "standard_normal", "random"}, ("perturb", "_draw"))
    assert not found, found


def test_one_certify_driver():
    # center and scales are fitted, and a calibration set is scored, only
    # inside ``verify._certify``, so a second construction loop fails here
    found = _calls_outside({"center_and_scales", "stream_calibration"}, ("verify", "_certify"))
    assert not found, found


@pytest.mark.parametrize("name", ["HyperRectReachSet", "SurrogateReachSet", "_conformal_step"])
def test_one_reachset_type(name):
    # the naive box is the one ``calibrate.ReachSet`` with zero lifts
    defined = [m for m in MODULES if hasattr(importlib.import_module(f"conformal_reach.{m}"), name)]
    assert not defined, f"{name} is still defined in {defined}"


@pytest.mark.parametrize(
    "owner, name",
    [
        ("guarantees", "_CHERNOFF"),
        ("perturb", "UNIFORM_LINF_BALL"),
        ("perturb", "UNIFORM_BOX"),
        ("perturb", "UNIFORM_L2_BALL"),
        ("perturb.PerturbationSpec", "distribution"),
        ("pca.ProjectionBasis", "input_dim"),
        ("hull", "_inscribed_simplex"),
        ("hull", "_INTERIOR_MARGIN"),
        ("hull.HullModel", "_bary_solver"),
        ("calibrate.CalibrationSet", "source"),
        ("hull.HullModel", "basis"),
    ],
)
def test_no_duplicate_path(owner, name):
    # beta_cdf's walk returns the Chernoff exit's 1.0 itself, an l-inf ball
    # is the uniform box, a spec's law is whether it has a radius, nothing
    # reads a basis's input dimension, every clip row takes the LP, with
    # no inscribed-simplex fast path, and no field stores an argument that
    # nothing reads. A dataclass field without a default is no class
    # attribute, so fields are read as well
    module, _, attr = owner.partition(".")
    obj = importlib.import_module(f"conformal_reach.{module}")
    if attr:
        obj = getattr(obj, attr)
    fields = {f.name for f in dataclasses.fields(obj)} if dataclasses.is_dataclass(obj) else set()
    assert not hasattr(obj, name) and name not in fields, f"{owner}.{name} is still defined"


def test_rows_are_cut_one_way():
    # row blocks are cut by ``model.row_slices``, which joins a lone last
    # row to the block before it; the one hand-stepped loop is the
    # stream's PIPELINE_CHUNK, whose lone last row must stay alone, or an
    # l2 ball's first PIPELINE_CHUNK draws would depend on the count
    found = [
        f"{path.name}:{node.lineno}: {ast.unparse(node)}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "range"
        and len(node.args) == 3 and ast.unparse(node.args[2]) != "PIPELINE_CHUNK"
    ]
    assert not found, found


def test_stream_takes_its_buffers_once():
    # ``stage_outputs`` takes one stage buffer, which holds every law's
    # draw behind its outputs, and the image rows of ``_base_rows``, both
    # before its first draw; a separate draw or output buffer, or a buffer
    # taken inside its chunk or block loop (a lazy buffer, one per chunk,
    # or a new draw per block) fails here
    tree = ast.parse((PACKAGE / "perturb.py").read_text())
    stream = next(top for top in tree.body if getattr(top, "name", None) == "stage_outputs")

    def taken(node):
        """(line, function) of each buffer-taking call in ``node``."""
        return [
            (call.lineno, ast.unparse(call.func))
            for call in ast.walk(node)
            if isinstance(call, ast.Call)
            and ast.unparse(call.func) in {"np.empty", "np.zeros", "_base_rows", "sample_lambdas"}
        ]

    found = {call for loop in ast.walk(stream) if isinstance(loop, ast.For) for call in taken(loop)}
    assert not found, sorted(found)
    assert sorted(func for _, func in taken(stream)) == ["_base_rows", "np.empty"], taken(stream)


# The public names whose one reader outside the tests is the benchmark's
# stage-by-stage replay, which keeps them alive; ROADMAP direction 16
# deletes the replay and empties this list, and a new name that only the
# replay reads fails here
REPLAY_ONLY = [
    "calibrate.build_calibration",
    "calibrate.naive_reachset",
    "perturb.apply_batch",
    "perturb.sample_lambdas",
]


def test_replay_only_names_are_pinned():
    readers = {}
    for path in CALLERS:
        for read, owner in _reads(path):
            readers.setdefault(read, set()).add((path, owner))
    found = []
    for name in MODULES:
        own = PACKAGE / f"{name}.py"
        for public in getattr(importlib.import_module(f"conformal_reach.{name}"), "__all__", ()):
            paths = {path for path, owner in readers.get(public, ()) if not (path == own and owner == public)}
            if paths == {ROOT / "perfbench" / "replay.py"}:
                found.append(f"{name}.{public}")
    assert found == REPLAY_ONLY


def test_deflation_never_copies_its_cloud():
    # ``pca.deflate`` reads the (t, n) cloud and projects the found
    # directions out of each gradient; a copy of the cloud to deflate
    # fails here
    tree = ast.parse((PACKAGE / "pca.py").read_text())
    deflate = next(top for top in tree.body if getattr(top, "name", None) == "deflate")
    found = [
        f"pca.py:{node.lineno}: {ast.unparse(node)}"
        for node in ast.walk(deflate)
        if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "copy"
    ]
    assert not found, found


def _passed():
    """(function name, parameter name or position) for every argument a
    call in CALLERS passes, the function named bare or as an attribute."""
    passed = set()
    for path in CALLERS:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                func = getattr(node.func, "id", getattr(node.func, "attr", None))
                passed.update((func, kw.arg) for kw in node.keywords)
                passed.update((func, i) for i in range(len(node.args)))
    return passed


def _defaulted(module):
    """Each defaulted parameter of a function in the module's ``__all__``,
    as ("function.parameter", its keys in ``_passed``: name and position)."""
    for name in getattr(module, "__all__", ()):
        fn = getattr(module, name)
        if inspect.isfunction(fn):
            for i, param in enumerate(inspect.signature(fn).parameters.values()):
                if param.default is not param.empty:
                    yield f"{name}.{param.name}", {(name, param.name), (name, i)}


@pytest.mark.parametrize("name", MODULES)
def test_defaulted_parameters_are_passed(name):
    # every defaulted parameter of a public function has a caller in CALLERS,
    # with no exceptions: a setting that no caller changes is a constant
    passed = _passed()
    module = importlib.import_module(f"conformal_reach.{name}")
    unpassed = [p for p, keys in _defaulted(module) if not keys & passed]
    assert not unpassed, f"{name}: no caller passes the parameters {unpassed}"


@pytest.mark.parametrize("builder", ["build_darkening", "build_global_ball"])
def test_manifest_keys_are_builder_parameters(builder):
    # the manifest records every argument of the builder call it rebuilds
    image = ImageTensor.from_array(np.array([[0.9, 0.1], [0.8, 0.2]]))
    args = (1.0,) if builder == "build_darkening" else ("linf", 0.1)
    fn = getattr(perturb, builder)
    keys = set(perturb.spec_manifest(fn(image, *args))) - {"image_shape", "adversary"}
    assert keys == set(inspect.signature(fn).parameters) - {"x"}
