import argparse
import ast
import importlib
import json
import math
import pkgutil
import struct
import subprocess
import sys
from decimal import Context, Decimal
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from qbell.cli import build_parser, fmt_float, main


def run_cli_process(*args):
    return subprocess.run(
        [sys.executable, "-m", "qbell.cli", *args],
        capture_output=True,
        text=True,
    )


@pytest.fixture
def run_cli(capsys):
    """Run ``cli.main`` in this process, with the exit code, stdout and
    stderr of a ``python -m qbell.cli`` run."""

    def run(*args):
        try:
            main(list(args))
            code = 0
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        return SimpleNamespace(returncode=code, stdout=captured.out, stderr=captured.err)

    return run


def test_fmt_float():
    assert fmt_float(0.9) == "0.900000000000"
    assert fmt_float(0.0) == "0.000000000000"
    assert fmt_float(298.5) == "298.500000000"
    assert fmt_float(1e-5) == "0.0000100000000000"
    assert "e-13" in fmt_float(1e-13)
    # both switches to scientific notation: below 1e-12 and from 1e12 up
    assert fmt_float(1e-12) == "0.000000000001"
    assert fmt_float(-9.9e-13) == "-9.90000000000e-13"
    assert fmt_float(999999999999.0) == "999999999999."
    assert fmt_float(1e12) == "1.00000000000e+12"
    assert fmt_float(-2e100) == "-2.00000000000e+100"
    # the switches read the value rounded to 12 significant digits: one
    # that rounds onto 1e12 or 1e-12 prints as that rounded value does
    assert fmt_float(999999999999.5) == "1.00000000000e+12"
    assert fmt_float(-999999999999.5) == "-1.00000000000e+12"
    assert fmt_float(9.9999999999995e-13) == fmt_float(1e-12) == "0.000000000001"
    assert fmt_float(9.99999999999e-13) == "9.99999999999e-13"


def _float_of_bits(bits):
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


# every finite float: hypothesis's floats, which favour edge values, and
# uniform 64-bit patterns, which spread over every binade
finite_floats = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.integers(0, 2**64 - 1).map(_float_of_bits).filter(math.isfinite),
)


@settings(derandomize=True, max_examples=1000, deadline=None, database=None)
@given(x=finite_floats)
@example(x=-0.0)
@example(x=5e-324)
@example(x=sys.float_info.min)
@example(x=-sys.float_info.max)
@example(x=999999999999.5)
@example(x=9.9999999999995e-13)
@example(x=1.000000000005)
def test_fmt_float_over_every_finite_float(x):
    text = fmt_float(x)
    if x == 0.0:
        assert text == "0.000000000000"
        return
    # the printed decimal is x to within 5e-12 of it, exactly, and parsing
    # it rounds by at most half an ulp more, subnormals included
    exact = Fraction(x)
    bound = Fraction(5, 10**12) * abs(exact)
    assert abs(Fraction(Decimal(text)) - exact) <= bound, text
    back = float(text)
    assert abs(Fraction(back) - exact) <= bound + Fraction(math.ulp(back)) / 2, text
    # scientific exactly when x rounded to 12 significant digits (half to
    # even, in exact decimal arithmetic) lies outside [1e-12, 1e12)
    rounded = abs(Context(prec=12).plus(Decimal(x)))
    assert ("e" in text) == (not Decimal("1e-12") <= rounded < Decimal("1e12")), text


def test_measures_bell_limit(run_cli):
    proc = run_cli("measures", "--kappa", "0", "--index", "2")
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    assert report["entropy"] == 1.0
    assert report["spectrum"] == [0.5, 0.5]
    assert "mean_photon_a" not in report


def test_measures_with_amplitude(run_cli):
    proc = run_cli("measures", "--alpha", "1", "--index", "1")
    report = json.loads(proc.stdout)
    assert report["entropy"] == pytest.approx(0.9484184662366613, abs=1e-12)
    assert report["gram_off_diagonal"] == pytest.approx(0.2658022288340797, abs=1e-12)
    assert report["mean_photon_a"] == pytest.approx(0.9640275800758168, abs=1e-12)


def test_measures_invalid_overlap(run_cli):
    proc = run_cli("measures", "--kappa", "1", "--index", "2")
    assert proc.returncode == 2
    err = json.loads(proc.stderr)
    assert "overlap must be < 1" in err["error"]


def test_measures_requires_exactly_one_input(run_cli):
    proc = run_cli("measures", "--index", "2")
    assert proc.returncode == 2
    proc = run_cli("measures", "--kappa", "0.2", "--alpha", "1", "--index", "2")
    assert proc.returncode == 2


def test_werner_reports(run_cli):
    proc = run_cli("werner", "--fidelity", "1", "--kappa", "0.3")
    report = json.loads(proc.stdout)
    assert report["eigenvalues"] == [1.0, 0.0, 0.0, 0.0]
    assert report["eof_wootters"] == pytest.approx(1.0, abs=1e-9)

    proc = run_cli("werner", "--fidelity", "0.7", "--kappa", str(np.exp(-2)))
    report = json.loads(proc.stdout)
    assert np.allclose(
        report["eigenvalues"],
        [0.7, 0.126580222883408, 0.1, 0.07341977711659203],
        atol=1e-10,
    )

    proc = run_cli("werner", "--fidelity", "0.8", "--kappa", "0")
    report = json.loads(proc.stdout)
    assert report["eof_wootters"] == pytest.approx(0.4689955935892811, abs=1e-9)

    proc = run_cli("werner", "--fidelity", "1.5", "--kappa", "0")
    assert proc.returncode == 2


def test_decohere_deterministic_bytes(tmp_path, run_cli):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ("decohere", "--steps", "12", "--etas", "0.9", "0.5")
    assert run_cli(*args, "--output", str(out1)).returncode == 0
    assert run_cli(*args, "--output", str(out2)).returncode == 0
    assert out1.read_bytes() == out2.read_bytes()
    lines = out1.read_text().splitlines()
    assert lines[0] == "alpha,eta,f,beta_star,eof_lower_bound"
    assert len(lines) == 25
    # ordered by (eta desc, alpha asc)
    rows = [line.split(",") for line in lines[1:]]
    etas = [float(r[1]) for r in rows]
    assert etas == sorted(etas, reverse=True)


def test_decohere_eta_one_row(run_cli):
    proc = run_cli(
        "decohere", "--steps", "2", "--alpha-min", "1", "--alpha-max", "2",
        "--etas", "1.0",
    )
    lines = proc.stdout.splitlines()
    for row in lines[1:]:
        assert row.split(",")[2] == "1.00000000000"


def test_decohere_small_amplitude_beats_biphoton(run_cli):
    proc = run_cli(
        "decohere", "--steps", "2", "--alpha-min", "0.1", "--alpha-max", "0.2",
        "--etas", "0.5",
    )
    first = proc.stdout.splitlines()[1].split(",")
    assert float(first[2]) > 0.5


def test_decohere_json_format(run_cli):
    proc = run_cli(
        "decohere", "--steps", "3", "--etas", "0.5", "--format", "json",
    )
    payload = json.loads(proc.stdout)
    assert len(payload["points"]) == 3
    assert set(payload["points"][0]) == {
        "alpha", "eta", "f", "beta_star", "eof_lower_bound",
    }


def test_decohere_unwritable_path(run_cli):
    proc = run_cli(
        "decohere", "--steps", "2", "--etas", "0.5",
        "--output", "/nonexistent-dir/out.csv",
    )
    assert proc.returncode == 3
    assert "error" in json.loads(proc.stderr)


def test_decohere_rejects_bad_grid(run_cli):
    proc = run_cli("decohere", "--alpha-min", "0", "--steps", "3", "--etas", "0.5")
    assert proc.returncode == 2
    proc = run_cli("decohere", "--steps", "1", "--etas", "0.5")
    assert proc.returncode == 2
    # figure1_sweep checks every eta before its first point, outside its
    # per-point handler, so the CLI needs no check of its own
    for etas in (["1.5"], ["0.5", "1.5"], ["nan"], ["-0.1"]):
        proc = run_cli("decohere", "--steps", "3", "--etas", *etas)
        assert proc.returncode == 2
        assert json.loads(proc.stderr) == {
            "error": f"transmissivity must lie in [0, 1], got {float(etas[-1])}"
        }


def test_charfunc_report(run_cli):
    proc = run_cli(
        "charfunc", "--alpha", "1", "--index", "2", "--zeta-a-im", "0.3",
    )
    report = json.loads(proc.stdout)
    assert report["real"] == pytest.approx(0.7859033875121365, abs=1e-10)
    assert report["imag"] == pytest.approx(0.0, abs=1e-12)
    proc = run_cli("charfunc", "--alpha", "1", "--index", "2")
    assert json.loads(proc.stdout)["real"] == pytest.approx(1.0, abs=1e-12)


def test_negative_scientific_values_are_values(run_cli):
    # argparse's own negative-number pattern has no exponent and reads
    # such a value as an option flag; every float option takes it
    proc = run_cli_process(
        "charfunc", "--alpha", "1", "--index", "2", "--zeta-b-im", "-7.855745641904832e-05"
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["zeta_b"] == [0.0, -7.855745641904832e-05]
    proc = run_cli("decohere", "--alpha-min", "-1e-3", "--steps", "2")
    assert proc.returncode == 2 and proc.stdout == ""
    assert json.loads(proc.stderr) == {"error": "alpha-min must be positive"}
    proc = run_cli("decohere", "--steps", "2", "--etas", "0.5", "-1E-3")
    assert proc.returncode == 2
    assert json.loads(proc.stderr) == {"error": "transmissivity must lie in [0, 1], got -0.001"}
    proc = run_cli("decohere", "--alpha-min", "-inf", "--steps", "2")
    assert json.loads(proc.stderr) == {"error": "alpha-min must be finite, got -inf"}
    required = {
        "measures": ["--index", "1"],
        "werner": ["-F", "0.5", "--kappa", "0.1"],
        "decohere": [],
        "charfunc": ["--alpha", "1", "--index", "1"],
    }
    parser = build_parser()
    subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    options = [
        (name, action)
        for name, sub in subparsers.choices.items()
        for action in sub._actions
        if action.type is float
    ]
    assert len(options) == 12
    for name, action in options:
        for text, value in (("-2.5e-01", -0.25), ("-.5E+1", -5.0), ("-3.", -3.0)):
            args = parser.parse_args([name, *required[name], action.option_strings[0], text])
            got = getattr(args, action.dest)
            assert (got if action.nargs is None else got[0]) == value, (name, action.dest)
    # a word that only starts like a number is still an unknown flag
    with pytest.raises(SystemExit):
        parser.parse_args(["decohere", "--etas", "0.5", "-1e"])


def test_help_everywhere(run_cli):
    assert run_cli_process("--help").returncode == 0
    assert run_cli("--help").returncode == 0
    for sub in ("measures", "werner", "decohere", "charfunc", "verify"):
        proc = run_cli(sub, "--help")
        assert proc.returncode == 0
        assert "--" in proc.stdout


def test_verify_truncation_rule_violation(run_cli):
    proc = run_cli("verify", "--truncation", "5")
    assert proc.returncode == 2
    assert "adequacy" in json.loads(proc.stderr)["error"]


def test_verify_failure_exit(run_cli, monkeypatch):
    # one failing check makes verify exit 1; every line keeps its deviation
    from qbell import verify

    results = [verify.CheckResult("good", 1e-16, 1e-12), verify.CheckResult("bad", 2e-3, 1e-9)]
    monkeypatch.setattr(verify, "run_all", lambda truncation=None: results)
    proc = run_cli("verify")
    assert proc.returncode == 1
    assert proc.stdout.splitlines() == [
        "good: max deviation = 1.000e-16 (tolerance 1.0e-12) -> PASS",
        "bad: max deviation = 2.000e-03 (tolerance 1.0e-09) -> FAIL",
    ]
    assert proc.stderr == "FAILED: bad\n"


def test_verify_reports_a_broken_search(run_cli, monkeypatch):
    # a closed-form maximizer 1e-5 off the oracle's peak fails its check
    # line instead of aborting the battery
    from qbell import decoherence

    optimum = decoherence._optimum

    def shifted(alpha, eta):
        beta, f = optimum(alpha, eta)
        return beta * (1.0 + 1e-5), f

    monkeypatch.setattr(decoherence, "_optimum", shifted)
    proc = run_cli("verify")
    assert proc.returncode == 1
    lines = proc.stdout.splitlines()
    assert len(lines) == 14
    failed = [line for line in lines if line.endswith("-> FAIL")]
    assert failed == [line for line in lines if line.startswith("optimal_beta: ")]
    assert failed[0].startswith("optimal_beta: max deviation = 1.000e-05")
    assert proc.stderr == "FAILED: optimal_beta\n"


def test_decohere_failed_sweep_is_json_error(run_cli, monkeypatch):
    # a search that breaks the runtime check at every point makes the
    # sweep fail
    from qbell import decoherence

    search = decoherence.search_optimal_beta

    def broken(alpha, eta):
        beta, f = search(alpha, eta)
        return beta, f * (1.0 + 1e-6)

    monkeypatch.setattr(decoherence, "search_optimal_beta", broken)
    proc = run_cli("decohere", "--alpha-min", "10", "--alpha-max", "14",
                   "--steps", "5", "--etas", "0.5")
    assert proc.returncode == 2
    error = json.loads(proc.stderr)["error"]
    assert error.startswith("5 sweep point(s) failed: ")
    assert error.count("disagrees with closed form") == 5


def test_out_of_memory_is_json_error(run_cli, monkeypatch):
    # numpy reports a too-large array as a MemoryError subclass; it leaves
    # as a JSON error, not a traceback.  A small grid, so nothing large is
    # allocated: only the stand-in sweep raises
    from qbell import decoherence

    def exhausted(alphas, etas):
        raise MemoryError("Unable to allocate 745. GiB for an array")

    monkeypatch.setattr(decoherence, "figure1_sweep", exhausted)
    proc = run_cli("decohere", "--steps", "3", "--etas", "0.5")
    assert proc.returncode == 2 and proc.stdout == ""
    assert json.loads(proc.stderr) == {
        "error": "out of memory: Unable to allocate 745. GiB for an array"
    }


def test_charfunc_tiny_amplitude_value(run_cli):
    # 1 - kappa^2 rounds to 0 at this amplitude; the value still exists
    proc = run_cli("charfunc", "--alpha", "1e-9", "--index", "2", "--zeta-a-im", "0.3")
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    assert report["real"] == pytest.approx(0.91297759515061, abs=1e-13)  # mpmath
    assert report["imag"] == pytest.approx(0.0, abs=1e-15)


@pytest.mark.parametrize(
    "args, field, value",
    [
        # the Gaussian envelope vanishes far from the origin
        (("--alpha", "1", "--index", "1", "--zeta-a-im", "1e300"), "real", 0.0),
        (("--alpha", "1", "--index", "2", "--zeta-a-re", "1e200"), "real", 0.0),
        (("--alpha", "1e10", "--index", "1", "--zeta-a-im", "1e300"), "real", 0.0),
        # kappa = exp(-1800) underflows to 0
        (("--alpha", "30", "--index", "2", "--witness"), "gaussianity_residual",
         3.074378936552943),
    ],
)
def test_charfunc_extreme_inputs(run_cli, args, field, value):
    proc = run_cli("charfunc", *args)
    assert proc.returncode == 0 and proc.stderr == ""
    assert json.loads(proc.stdout)[field] == pytest.approx(value, rel=1e-12, abs=0.0)


def test_charfunc_witness_tiny_amplitude(run_cli):
    # state 1 is the vacuum to rounding here, so the residual is rounding
    proc = run_cli("charfunc", "--alpha", "1e-300", "--index", "1", "--witness")
    assert proc.returncode == 0 and proc.stderr == ""
    report = json.loads(proc.stdout)
    assert report["real"] == 1.0
    assert 0.0 <= report["gaussianity_residual"] < 1e-13


@pytest.mark.parametrize(
    "args",
    [
        ("measures", "--alpha", "1e200", "--index", "2"),
        ("decohere", "--alpha-min", "1e160", "--alpha-max", "1e161",
         "--steps", "2", "--etas", "0.5"),
        ("charfunc", "--alpha", "1e200", "--index", "1"),
    ],
)
def test_huge_amplitude_is_json_error(run_cli, args):
    # alpha^2 overflows a Python float
    proc = run_cli(*args)
    assert proc.returncode == 2
    assert proc.stdout == ""
    # the error names the amplitude
    assert repr(float(args[2])) in json.loads(proc.stderr)["error"]


def test_floating_point_fault_is_pure_json_error():
    proc = run_cli_process("decohere", "--alpha-min", "1e-160", "--alpha-max", "1e-150",
                           "--steps", "2", "--etas", "0.5")
    assert proc.returncode == 2
    assert proc.stdout == ""
    error = json.loads(proc.stderr)["error"]
    # 1e-160^2 is subnormal, a domain error of the family overlap; 1e-150 succeeds
    assert "alpha^2 is below the smallest normal float" in error
    # the sweep names the failing point
    assert "(alpha=1e-160, eta=0.5)" in error


def test_overflow_band_is_pure_json_error():
    # alpha^2 is finite here, 4 alpha^2 is not: a domain error naming each
    # point, with no numpy overflow warning on stderr
    proc = run_cli_process("decohere", "--alpha-min", "1e154", "--alpha-max", "1.2e154",
                           "--steps", "2", "--etas", "0.5")
    assert proc.returncode == 2
    assert proc.stdout == ""
    error = json.loads(proc.stderr)["error"]
    assert "overflow" not in error
    for alpha in ("1e+154", "1.2e+154"):
        assert f"(alpha={alpha}, eta=0.5): amplitude {alpha} is out of range" in error


def test_numpy_fault_is_json_error(run_cli, monkeypatch):
    # no real input reaches a numpy fault any more; the CLI still makes
    # one raise, and the sweep names its point
    from qbell import decoherence

    real = decoherence._optimum

    def faulty(alpha, eta):
        if alpha < 0.5:
            return np.float64(1.0) / np.float64(0.0)
        return real(alpha, eta)

    monkeypatch.setattr(decoherence, "_optimum", faulty)
    proc = run_cli("decohere", "--alpha-min", "0.1", "--alpha-max", "1",
                   "--steps", "2", "--etas", "0.5")
    assert proc.returncode == 2
    assert proc.stdout == ""
    error = json.loads(proc.stderr)["error"]
    assert "1 sweep point(s) failed: (alpha=0.1, eta=0.5): divide by zero" in error


def test_runtime_imports_no_scipy():
    probe = (
        "import runpy, sys\n"
        "import qbell\n"
        "assert not any(m.split('.')[0] == 'scipy' for m in sys.modules), 'import'\n"
        "sys.argv = ['qbell', '--help']\n"
        "try:\n"
        "    runpy.run_module('qbell.cli', run_name='__main__')\n"
        "except SystemExit as exc:\n"
        "    assert exc.code == 0\n"
        "assert not any(m.split('.')[0] == 'scipy' for m in sys.modules), 'cli'\n"
    )
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


# Runs ``qbell <argv>`` as ``python -m qbell.cli`` does and returns the
# exit code and the loaded numpy and qbell submodules.  A module, once
# loaded, stays in sys.modules, so a module missing after several
# commands was loaded by none of them.
_LOADING_PROBE = """\
import contextlib, io, json, runpy, sys

def loaded():
    return sorted(m for m in sys.modules if m == "numpy" or m.startswith("qbell."))

def run(*argv):
    sys.argv = ["qbell", *argv]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            runpy.run_module("qbell.cli", run_name="__main__")
            code = 0
        except SystemExit as exc:
            code = exc.code
    return code, loaded()
"""


def run_loading_probe(body):
    proc = subprocess.run(
        [sys.executable, "-c", _LOADING_PROBE + body], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_commands_load_only_what_they_run():
    # import qbell loads nothing; --help and a usage error never load
    # numpy (runpy runs the CLI as __main__, not as qbell.cli)
    got = run_loading_probe(
        "import qbell\n"
        "print(json.dumps([(0, loaded()), run('--help'), run('measures', '--alpha', '1')]))\n"
    )
    assert got == [[0, []], [0, []], [2, []]]
    # the closed-form commands never load the Fock oracle; verify does
    got = run_loading_probe(
        "print(json.dumps([run('measures', '--alpha', '1', '--index', '2'),\n"
        "                  run('werner', '-F', '0.7', '--kappa', '0.3'),\n"
        "                  run('decohere', '--steps', '2', '--etas', '0.5'),\n"
        "                  run('charfunc', '--alpha', '1', '--index', '2', '--witness'),\n"
        "                  run('verify')]))\n"
    )
    assert [code for code, _ in got] == [0] * 5
    closed_form, everything = set(got[3][1]), set(got[4][1])
    assert "numpy" in closed_form
    assert not {"qbell.verify", "qbell.fock"} & closed_form
    assert {"qbell.verify", "qbell.fock"} <= everything


def test_submodules_import_under_raising_errstate():
    # each subcommand imports its modules inside main's np.errstate block,
    # so no module's import-time arithmetic may raise there; one process
    # runs every module's top level once
    probe = (
        "import importlib, pkgutil, sys\n"
        "import numpy as np\n"
        "import qbell\n"
        "with np.errstate(all='raise'):\n"
        "    for info in pkgutil.iter_modules(qbell.__path__):\n"
        "        importlib.import_module(f'qbell.{info.name}')\n"
        "print(*sorted(m for m in sys.modules if m.startswith('qbell.')))\n"
    )
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert len(proc.stdout.split()) == 8


def test_package_reads_no_environment():
    # a run's output depends only on its arguments
    for path in sorted((Path(__file__).parents[1] / "src" / "qbell").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Attribute):
                name = node.attr
            elif isinstance(node, ast.Name):
                name = node.id
            else:
                continue
            assert name not in ("environ", "getenv"), (
                f"{path.name}:{node.lineno} reads the environment"
            )


def test_package_caches_are_bounded():
    # every lru_cache in the package has a finite maxsize, so a
    # long-lived process that visits many keys cannot grow without bound
    import qbell

    caches = {
        f"{info.name}.{name}": value
        for info in pkgutil.iter_modules(qbell.__path__)
        for name, value in vars(importlib.import_module(f"qbell.{info.name}")).items()
        if callable(getattr(value, "cache_info", None))
    }
    # the exact set, so a new cache is a deliberate edit here
    assert set(caches) == {
        "fock._number_levels",
        "fock._sector_eigensystem",
        "fock._vacuum_columns",
        "fock._displacement_eigensystem",
    }
    unbounded = [name for name, cache in caches.items() if cache.cache_info().maxsize is None]
    assert unbounded == []


def test_package_exports():
    # the names ``qbell`` re-exports from its submodules
    import qbell

    names = """
        QuasiBell normalization_constant gram_matrix gram_off_diagonal
        reduced_spectrum entropy_of_entanglement embed_qubit
        binary_entropy concurrence_pure eof_wootters
        eof_lower_bound fully_entangled_fraction
        QuasiWerner build_quasi_werner quasi_werner_spectrum
        CoherentQuasiBell CharFuncPoint overlap_of_amplitude mean_photon_numbers
        characteristic_function gaussianity_witness asymmetric_spectrum
        LossChannel DecoheredState FractionCurvePoint apply_loss
        fraction_over_family optimal_beta biphoton_fraction figure1_sweep
    """.split()
    assert len(names) == 30
    assert set(names) == set(qbell.__all__)
    assert set(names) <= set(dir(qbell))
    # each export is its submodule's own object, loaded on first access
    modules = [importlib.import_module(f"qbell.{info.name}")
               for info in pkgutil.iter_modules(qbell.__path__)]
    for name in names:
        owners = [m for m in modules if name in getattr(m, "__all__", ())]
        assert len(owners) == 1, name
        assert getattr(qbell, name) is getattr(owners[0], name)
    with pytest.raises(AttributeError):
        getattr(qbell, "no_such_name")


def test_cli_options():
    # every subcommand's option strings: a new knob is a deliberate edit here
    subparsers = next(
        a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    )
    options = {
        name: sorted(s for a in sub._actions for s in a.option_strings if s not in ("-h", "--help"))
        for name, sub in subparsers.choices.items()
    }
    assert options == {
        "measures": ["--alpha", "--index", "--kappa"],
        "werner": ["--fidelity", "--kappa", "-F"],
        "decohere": ["--alpha-max", "--alpha-min", "--etas", "--format", "--output",
                     "--steps", "-o"],
        "charfunc": ["--alpha", "--index", "--witness", "--zeta-a-im", "--zeta-a-re",
                     "--zeta-b-im", "--zeta-b-re"],
        "verify": ["--truncation"],
    }


@pytest.mark.parametrize(
    "args, message",
    [
        (("werner", "-F", "nan", "--kappa", "0.1"), "mixture weight must lie in [0, 1], got nan"),
        (("charfunc", "--alpha", "1", "--index", "1", "--zeta-a-im", "nan"),
         "zeta_a must be finite"),
        (("charfunc", "--alpha", "1", "--index", "1", "--zeta-b-re", "inf"),
         "zeta_b must be finite"),
        (("decohere", "--alpha-min", "1", "--alpha-max", "inf", "--steps", "2", "--etas", "0.5"),
         "alpha-max must be finite, got inf"),
        (("decohere", "--alpha-min", "1", "--alpha-max", "nan", "--steps", "2", "--etas", "0.5"),
         "alpha-max must be finite, got nan"),
        (("decohere", "--alpha-min", "nan", "--steps", "2", "--etas", "0.5"),
         "alpha-min must be finite, got nan"),
    ],
)
def test_non_finite_input_names_itself(run_cli, args, message):
    proc = run_cli(*args)
    assert proc.returncode == 2 and proc.stdout == ""
    assert message in json.loads(proc.stderr)["error"]
