"""What importing padicloci and running one CLI document loads.

The package resolves its public names and its submodules on first
access, and the CLI imports a command's modules inside the handlers
that use them, so a fresh process compiles only what its command runs.
These tests pin that, in fresh interpreters, and pin that the lazy
package surface is the one the eager one had.
"""

import importlib.util
import json
import pathlib
import subprocess
import sys

import pytest

import padicloci
from padicloci.padic import PadicScalar

SRC = pathlib.Path(padicloci.__file__).resolve().parent.parent
TRACING = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"

PUBLIC = {
    "AnalyticLocus", "AnalyticSeries", "BinomialSystem", "CycNumber", "DomainError",
    "JumpingLocusSample", "LaurentPoly", "NewtonPolygon", "PadicScalar", "PolyDisc",
    "PrecisionError", "TorsionCoset", "TwistedComplex", "UnramifiedScalar", "WeightedAction",
    "check_scaling_unit", "circle_complex", "conic_certificate", "coset_eq", "cyclotomic_poly",
    "embed_root_of_unity", "enumerate_torsion", "exp_domain_bound", "fitting_locus",
    "laurent_det", "modulus_poly", "multiplicative_generator", "newton_polygon", "padic_exp",
    "padic_log", "restrict_to_orbit", "scalar_from_json", "scan_torsion", "shape_check",
    "sigma_stable", "solve_binomial", "specialize", "strassmann_count", "surface_complex",
    "teichmuller", "torsion_certificate_pipeline", "torus_complex", "vanish_certificate",
    "wedge_complex",
}

# one document, run in a fresh interpreter, prints its exit code and the
# padicloci modules loaded by then
CHILD = """
import io, json, sys
sys.path.insert(0, sys.argv[1])
from padicloci import cli
sys.stdin = io.StringIO(sys.argv[3])
sys.stdout = io.StringIO()
code = cli.main([sys.argv[2]])
sys.stdout = sys.__stdout__
print(json.dumps([code, sorted(m for m in sys.modules if m.split(".")[0] == "padicloci")]))
"""

_ALPHA = PadicScalar.from_int(5, 6, 24).to_json()
_TORUS = {"builtin": "torus"}
DOCS = {
    "teichmuller": {"p": 5, "xi": 2, "prec": 8},
    "exp": {"p": 5, "x": 5},
    "log": {"p": 5, "x": 6},
    "cohomology": {"complex": _TORUS, "character": ["1/5", "2/5"]},
    "jumping-scan": {"complex": _TORUS, "i": 1, "j": 0, "order_bound": 4},
    "find-torsion": {
        "system": {"dim": 2, "equations": [{"exponents": [2, 0], "rhs": "1/3"}]},
        "action": {"p": 5, "weights": [1, 1], "alpha": _ALPHA},
        "automorphism": [[1, 0], [0, 1]],
    },
}


def loaded_by(cmd):
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, str(SRC), cmd, json.dumps(DOCS[cmd])],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    code, modules = json.loads(proc.stdout)
    assert code == 0, cmd
    return {m.partition(".")[2] for m in modules if m != "padicloci"}


@pytest.mark.parametrize("cmd", ["teichmuller", "exp", "log"])
def test_padic_commands_load_only_cli_padic_and_linalg(cmd):
    assert loaded_by(cmd) == {"cli", "padic", "linalg"}


@pytest.mark.parametrize("cmd", ["cohomology", "jumping-scan"])
def test_complex_commands_load_no_coset_machinery(cmd):
    loaded = loaded_by(cmd)
    assert "complexes" in loaded
    assert not loaded & {"cosets", "conic", "series", "intlinalg"}


def test_find_torsion_loads_no_complex_machinery():
    loaded = loaded_by("find-torsion")
    assert "cosets" in loaded
    assert not loaded & {"complexes", "cyclotomic", "laurent"}


def test_importing_the_package_loads_no_submodule():
    proc = subprocess.run(
        [
            sys.executable,
            "-c",
            "import sys; sys.path.insert(0, sys.argv[1]); import padicloci; "
            "print(sorted(m for m in sys.modules if m.startswith('padicloci.')))",
            str(SRC),
        ],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_every_public_name_is_its_defining_modules_object():
    assert set(padicloci.__all__) == PUBLIC and len(padicloci.__all__) == 44
    for name in padicloci.__all__:
        obj = getattr(padicloci, name)
        assert obj.__module__.startswith("padicloci.")
        assert getattr(sys.modules[obj.__module__], name) is obj


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from padicloci import *", namespace)
    assert PUBLIC <= set(namespace)
    for name in PUBLIC:
        assert namespace[name] is getattr(padicloci, name)


def test_dir_lists_every_public_name_and_unknown_names_are_missing():
    assert PUBLIC <= set(dir(padicloci))
    assert not hasattr(padicloci, "no_such_name")
    with pytest.raises(AttributeError, match="no_such_name"):
        padicloci.no_such_name


def test_every_traced_module_resolves_on_the_package():
    spec = importlib.util.spec_from_file_location("_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for name in tracing.MODULES:
        mod = getattr(padicloci, name)
        assert mod is sys.modules["padicloci." + name]
