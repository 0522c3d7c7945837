"""CLI end-to-end: exit codes, JSON schema, CSV byte-stability, SVG."""

import inspect
import json
import os
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from koshliakov import identities
from koshliakov.cli import _PARAMS, main, parse_complex_literal
from koshliakov.errors import ConvergenceError
from koshliakov.identities import IDENTITIES
from koshliakov.reporting import CSV_HEADER

REPORT_SCHEMA = {
    "type": "object",
    "required": ["identity", "params", "lhs", "rhs", "abs_diff", "rel_diff",
                 "budgets", "pass"],
    "additionalProperties": False,
    "properties": {
        "identity": {"type": "string"},
        "params": {"type": "object"},
        "lhs": {"type": "array", "items": {"type": "number"},
                "minItems": 2, "maxItems": 2},
        "rhs": {"type": "array", "items": {"type": "number"},
                "minItems": 2, "maxItems": 2},
        "abs_diff": {"type": "number"},
        "rel_diff": {"type": "number"},
        "budgets": {"type": "object",
                    "additionalProperties": {"type": "number"}},
        "pass": {"type": "boolean"},
    },
}


def test_parse_complex_literal():
    assert parse_complex_literal("0.5") == 0.5
    assert parse_complex_literal("-0.3") == -0.3
    assert parse_complex_literal("0.5+0.25i") == 0.5 + 0.25j
    assert parse_complex_literal("0.5-0.25i") == 0.5 - 0.25j
    assert parse_complex_literal("0.25i") == 0.25j
    assert parse_complex_literal("-i") == -1j
    assert parse_complex_literal("i") == 1j
    assert parse_complex_literal("1e-3i") == 1e-3j
    assert parse_complex_literal("0.5-1e-2i") == 0.5 - 0.01j
    with pytest.raises(ValueError):
        parse_complex_literal("abc")


def test_verify_pass_json(capsys):
    code = main(["verify", "mellin-k", "--s", "2", "--nu", "0", "--q", "1"])
    out = capsys.readouterr().out
    assert code == 0
    doc = json.loads(out)
    jsonschema.validate(doc, REPORT_SCHEMA)
    assert doc["identity"] == "mellin-k"
    assert abs(doc["lhs"][0] - 1.0) < 1e-12
    assert abs(doc["rhs"][0] - 1.0) < 1e-12
    assert doc["pass"] is True


def test_verify_fail_exit_2(capsys):
    code = main(["verify", "mellin-k", "--s", "2", "--nu", "0", "--q", "1",
                 "--tolerance", "1e-30"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 2
    assert doc["pass"] is False


def test_verify_domain_exit_3(capsys):
    code = main(["verify", "rg-corollary", "--z", "1.5"])
    err = capsys.readouterr().err
    assert code == 3
    assert "|Re z| < 1 required" in err


def test_verify_rg_example(capsys):
    code = main(["verify", "rg-corollary", "--z", "0.5", "--alpha", "1",
                 "--terms", "10"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    assert doc["rel_diff"] <= 1e-8


@pytest.mark.parametrize("name,flag,summed,code", [
    pytest.param("rg-corollary-z0", "--terms=1", 8, 0, id="rg-corollary-z0-8"),
    pytest.param("hurwitz-corollary-z0", "--terms=1", 4, 0,
                 id="hurwitz-corollary-z0-4"),
    pytest.param("bessel-hurwitz-sum", "--terms=2", 2, 2, id="bessel-hurwitz-sum-2")])
def test_report_states_the_terms_it_summed(name, flag, summed, code, capsys,
                                           monkeypatch):
    # The two z=0 forms floor the divisor sum to guard its remainder at
    # tiny N.  bessel-hurwitz-sum sums as many lambda terms as it states,
    # and at N = 2 its Euler-Maclaurin residual fails the identity honestly.
    lambda_terms = []
    orig = identities.lambda_sum

    def counted(alpha, z, n_terms):
        lambda_terms.append(n_terms)
        return orig(alpha, z, n_terms)

    monkeypatch.setattr(identities, "lambda_sum", counted)
    assert main(["verify", name, flag]) == code
    assert json.loads(capsys.readouterr().out)["params"]["terms"] == summed
    assert all(n == summed for n in lambda_terms)


def test_oscillation_budget_is_never_zero(capsys):
    # At the defaults the last two averaged partial sums coincide in
    # floating point; the budget is floored at their roundoff.
    assert main(["verify", "omega-self-reciprocal"]) == 0
    assert json.loads(capsys.readouterr().out)["budgets"]["oscillation_err"] > 0.0


def test_usage_unknown_identity(capsys):
    assert main(["verify", "no-such-identity"]) == 64


def test_usage_inapplicable_flag(capsys):
    assert main(["verify", "rg-corollary", "--q", "3"]) == 64


def test_verify_pair_reciprocity_defaults_exit_3(capsys):
    # The default z = 0.5 is on the K-pair's closed edge, outside the
    # transform's open |Re z| < 1/2.
    code = main(["verify", "pair-reciprocity"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert "|Re z| < 1/2" in captured.err


def test_usage_bad_flag_value():
    with pytest.raises(SystemExit) as exc:
        main(["verify", "rg-corollary", "--alpha", "wat"])
    assert exc.value.code == 64


def test_usage_missing_command():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 64


def test_sweep_csv_schema_and_stability(tmp_path):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    args = ["sweep", "rg-formula", "--z", "0.5", "--alpha-min", "0.5",
            "--alpha-max", "2", "--steps", "3", "--terms", "12"]
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    text = out1.read_text()
    lines = text.strip().split("\n")
    assert lines[0] == CSV_HEADER
    assert len(lines) == 4
    assert out1.read_bytes() == out2.read_bytes()
    first = lines[1].split(",")
    assert float(first[0]) == 0.5
    assert len(first) == 7


def test_sweep_two_point_grid(capsys):
    code = main(["sweep", "omega-modular", "--z", "0.5", "--alpha-min", "1",
                 "--alpha-max", "2", "--steps", "2"])
    out = capsys.readouterr().out
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == CSV_HEADER
    assert len(lines) == 3


def test_sweep_svg_valid(tmp_path):
    svg = tmp_path / "chart.svg"
    code = main(["sweep", "rg-formula", "--z", "0.5", "--alpha-min", "0.5",
                 "--alpha-max", "2", "--steps", "3", "--terms", "12",
                 "--out", str(tmp_path / "c.csv"), "--svg", str(svg)])
    assert code == 0
    root = ET.parse(str(svg)).getroot()
    assert root.tag == "{http://www.w3.org/2000/svg}svg"
    assert root.get("version") == "1.1"
    polylines = root.findall(".//{http://www.w3.org/2000/svg}polyline")
    assert len(polylines) == 2


def test_sweep_invalid_config_usage(capsys):
    assert main(["sweep", "rg-formula", "--alpha-min", "0.1",
                 "--alpha-max", "2", "--steps", "3"]) == 64
    assert main(["sweep", "rg-formula", "--alpha-min", "-1",
                 "--alpha-max", "2", "--steps", "3"]) == 64
    assert "alpha range must sit inside [1/4, 4]" in capsys.readouterr().err
    assert main(["sweep", "rg-formula", "--alpha-min", "0.5",
                 "--alpha-max", "2", "--steps", "1"]) == 64
    assert main(["sweep", "mellin-k"]) == 64  # no alpha to sweep


@pytest.mark.parametrize("tolerance", ["inf", "0", "-1", "nan"])
@pytest.mark.parametrize("command", [
    ["verify", "bessel-hurwitz-sum", "--terms=2"],
    ["sweep", "rg-formula", "--steps=2"]])
def test_tolerance_must_be_finite_and_positive(command, tolerance, capsys):
    # An infinite tolerance would pass anything, and a zero, negative or
    # nan one would fail everything.
    assert main(command + [f"--tolerance={tolerance}"]) == 64
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "tolerance must be finite and positive" in captured.err


@pytest.mark.parametrize("command", [
    ["verify", "laplace-bessel", "--z", "nan"],
    ["verify", "mellin-k", "--nu", "nan"],
    ["eval", "zeta", "--s", "nan"],
    ["eval", "lambda", "--x", "nan"],
    ["eval", "gamma", "--s", "nan"],
    ["eval", "bessel-k", "--x", "nan"],
    ["verify", "laplace-bessel", "--y", "inf"],
    ["sweep", "rg-formula", "--steps=2", "--z=-inf"]])
def test_non_finite_flag_is_a_usage_error(command, capsys):
    # A nan or inf float or complex flag is refused at parse time, with
    # one error line, not a traceback or a nan result.
    with pytest.raises(SystemExit) as exc:
        main(command)
    assert exc.value.code == 64
    captured = capsys.readouterr()
    assert captured.out == ""
    errors = [line for line in captured.err.splitlines() if "error:" in line]
    assert len(errors) == 1 and "must be finite" in errors[0]
    assert "Traceback" not in captured.err


def test_registry_runners_take_flags_then_tolerance():
    # A runner's parameters are its CLI flags, each one the CLI parses,
    # then tolerance: there is no other knob.
    for name, entry in IDENTITIES.items():
        params = tuple(inspect.signature(entry.runner).parameters)
        assert params == entry.arg_names + ("tolerance",), name
        assert all(flag in _PARAMS for flag in entry.arg_names), name
        assert "spec" not in params, name


def test_sweep_inapplicable_flag_usage(capsys):
    # sweep resolves its flags like verify does.
    assert main(["sweep", "rg-corollary", "--x", "3", "--s", "4"]) == 64
    err = capsys.readouterr().err
    assert "--s, --x do not apply" in err
    assert main(["sweep", "rg-corollary-z0", "--z", "0.5", "--steps", "2"]) == 64


def test_sweep_partial_failure_nan_rows(tmp_path, capsys, monkeypatch):
    # A row that raises records nan fields and forces a nonzero exit
    # (laplace-bessel integrates each row on its own, at rate 2 pi alpha).
    orig = identities.integrate_half_line

    def flaky(f, rate, spec=None):
        if rate > 2.0 * np.pi:
            raise ConvergenceError("synthetic failure")
        return orig(f, rate, spec)

    monkeypatch.setattr(identities, "integrate_half_line", flaky)
    out = tmp_path / "d.csv"
    code = main(["sweep", "laplace-bessel", "--z", "0.5", "--alpha-min", "0.5",
                 "--alpha-max", "2", "--steps", "3", "--out", str(out)])
    assert code == 2
    lines = out.read_text().strip().split("\n")
    assert len(lines) == 4
    assert "nan" in lines[-1] and "nan" in lines[-2]
    assert "nan" not in lines[1]


@pytest.mark.parametrize("name,flags", [
    ("rg-corollary", ["--z", "1.5"]),
    ("rg-corollary", ["--terms", "0"]),
    ("laplace-bessel", ["--z=-2"])])
def test_sweep_input_error_exits_3_like_verify(name, flags, tmp_path, capsys):
    # An input error raised by the sweep's one verifier call is verify's
    # error: the same message, exit 3 and no CSV.
    assert main(["verify", name, *flags]) == 3
    message = capsys.readouterr().err
    out = tmp_path / "s.csv"
    assert main(["sweep", name, *flags, "--alpha-min=0.5", "--alpha-max=2",
                 "--steps=3", "--out", str(out)]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    assert captured.err == message and message.count("\n") == 1


@pytest.mark.parametrize("name", sorted(name for name, entry in IDENTITIES.items()
                                        if "alpha" in entry.arg_names))
def test_sweep_is_one_verifier_call(name, capsys, monkeypatch):
    # The whole grid goes to the identity's verifier in one call.
    runner = IDENTITIES[name].runner.__name__
    orig = getattr(identities, runner)
    calls = []

    def counted(**kwargs):
        calls.append(kwargs["alpha"])
        return orig(**kwargs)

    monkeypatch.setattr(identities, runner, counted)
    assert main(["sweep", name, "--alpha-min=0.5", "--alpha-max=2",
                 "--steps=3"]) in (0, 2)
    assert calls == [[0.5, 1.25, 2.0]]
    assert len(capsys.readouterr().out.strip().split("\n")) == 4


@pytest.mark.parametrize("name,verifier", [("hurwitz-modular", "verify_hurwitz_modular"),
                                           ("omega-laplace", "verify_omega_laplace")])
def test_traced_sweep_sees_its_verifier(name, verifier, tmp_path):
    # The benchmark's tracer wraps the verify_* functions, so a sweep shows
    # up under its verifier's span.
    root = Path(__file__).resolve().parents[1]
    spans = tmp_path / "spans.json"
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    done = subprocess.run(
        [sys.executable, str(root / "perfbench" / "trace_child.py"), str(spans), "j", "--",
         "sweep", name, "--alpha-min=0.5", "--alpha-max=2", "--steps=2"],
        env=env, cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    doc = json.loads(spans.read_text())
    assert f"identities.{verifier}" in {doc["names"][span[0]] for span in doc["spans"]}


_HZ_SWEEP = ["sweep", "hurwitz-corollary", "--z=-0.4+0.3i", "--alpha-min",
             "0.5", "--alpha-max", "2", "--steps", "5"]


def test_sweep_twice_in_one_process_is_byte_identical(tmp_path):
    # No state survives a sweep: a rerun in the same process matches.
    paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
    for path in paths:
        assert main(_HZ_SWEEP + ["--out", str(path)]) == 0
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_sweep_shared_integral_failure_fails_every_row(tmp_path, capsys,
                                                      monkeypatch):
    def broken(*args, **kwargs):
        raise ConvergenceError("synthetic failure")

    monkeypatch.setattr(identities, "integrate_finite", broken)
    out = tmp_path / "s.csv"
    assert main(_HZ_SWEEP + ["--out", str(out)]) == 2
    rows = out.read_text().strip().split("\n")[1:]
    assert len(rows) == 5
    assert all(row.split(",")[1:] == ["nan"] * 6 for row in rows)
    assert capsys.readouterr().err.count("synthetic failure") == 1


_OMEGA_SWEEPS = {
    "omega-modular": ["sweep", "omega-modular", "--z=-0.6", "--alpha-min", "0.5",
                      "--alpha-max", "2", "--steps", "5"],
    "omega-laplace": ["sweep", "omega-laplace", "--z=0.3+0.2i", "--alpha-min", "0.5",
                      "--alpha-max", "2", "--steps", "5"],
}


@pytest.mark.parametrize("name", sorted(_OMEGA_SWEEPS))
def test_omega_sweep_twice_in_one_process_is_byte_identical(name, tmp_path):
    paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
    for path in paths:
        assert main(_OMEGA_SWEEPS[name] + ["--out", str(path)]) == 0
    assert paths[0].read_bytes() == paths[1].read_bytes()


@pytest.mark.parametrize("name", sorted(_OMEGA_SWEEPS))
def test_omega_sweep_shared_integral_failure_fails_every_row(name, tmp_path, capsys,
                                                            monkeypatch):
    # The alphas (and reciprocals) share one Laplace integral.
    def broken(*args, **kwargs):
        raise ConvergenceError("synthetic failure")

    monkeypatch.setattr(identities, "integrate_half_line", broken)
    out = tmp_path / "s.csv"
    assert main(_OMEGA_SWEEPS[name] + ["--out", str(out)]) == 2
    rows = out.read_text().strip().split("\n")[1:]
    assert len(rows) == 5
    assert all(row.split(",")[1:] == ["nan"] * 6 for row in rows)
    assert capsys.readouterr().err.count("synthetic failure") == 1


# The three sweeps whose lambda sides come from one lambda_sum call over
# the grid (hurwitz-modular's over the alphas and their reciprocals).
_LAMBDA_SWEEPS = {
    "hurwitz-corollary": _HZ_SWEEP,
    "omega-laplace": _OMEGA_SWEEPS["omega-laplace"],
    "hurwitz-modular": ["sweep", "hurwitz-modular", "--z=-0.4+0.3i", "--alpha-min",
                        "0.5", "--alpha-max", "2", "--steps", "5"],
}


@pytest.mark.parametrize("name", sorted(_LAMBDA_SWEEPS))
def test_sweep_row_failure_fails_its_row_only(name, tmp_path, capsys, monkeypatch):
    # An error in one row's own work (its report) fails that row only.
    orig = identities._report

    def flaky(identity_id, params, *args, **kwargs):
        if params["alpha"] > 1.5:
            raise ConvergenceError("synthetic failure")
        return orig(identity_id, params, *args, **kwargs)

    monkeypatch.setattr(identities, "_report", flaky)
    out = tmp_path / "s.csv"
    assert main(_LAMBDA_SWEEPS[name] + ["--out", str(out)]) == 2
    rows = out.read_text().strip().split("\n")[1:]
    assert ["nan" in row for row in rows] == [False, False, False, True, True]
    assert capsys.readouterr().err.count("synthetic failure") == 2


@pytest.mark.parametrize("name", sorted(_LAMBDA_SWEEPS))
def test_sweep_hurwitz_F_failure_fails_every_row(name, tmp_path, capsys, monkeypatch):
    # The lambda sides of the whole grid are one lambda_sum call: shared work.
    calls = []

    def broken(alpha, z, n_terms):
        calls.append(np.size(alpha))
        raise ConvergenceError("synthetic failure")

    monkeypatch.setattr(identities, "lambda_sum", broken)
    out = tmp_path / "s.csv"
    assert main(_LAMBDA_SWEEPS[name] + ["--out", str(out)]) == 2
    rows = out.read_text().strip().split("\n")[1:]
    assert len(rows) == 5
    assert all(row.split(",")[1:] == ["nan"] * 6 for row in rows)
    assert capsys.readouterr().err.count("synthetic failure") == 1
    assert calls == [10 if name == "hurwitz-modular" else 5]


def test_rg_formula_sweep_is_one_f_frak_call(tmp_path, capsys, monkeypatch):
    # f_frak runs once, over the alphas and their reciprocals: an error
    # there fails every row.
    calls = []

    def broken(z, alpha, terms):
        calls.append(np.size(alpha))
        raise ConvergenceError("synthetic failure")

    monkeypatch.setattr(identities, "f_frak", broken)
    out = tmp_path / "s.csv"
    assert main(["sweep", "rg-formula", "--z=0.3+0.2i", "--alpha-min", "0.5",
                 "--alpha-max", "2", "--steps", "5", "--out", str(out)]) == 2
    rows = out.read_text().strip().split("\n")[1:]
    assert len(rows) == 5
    assert all(row.split(",")[1:] == ["nan"] * 6 for row in rows)
    assert capsys.readouterr().err.count("synthetic failure") == 1
    assert calls == [10]


@pytest.mark.parametrize("alpha,z", [(0.25, -0.6), (1.0, 0.0), (2.0, 0.3 + 0.2j)])
def test_omega_modular_grid_of_one_alpha_is_the_verify(alpha, z):
    assert identities.verify_omega_modular([alpha], z)[0] == \
        identities.verify_omega_modular(alpha, z)


def test_eval_examples(capsys):
    assert main(["eval", "zeta", "--s", "2"]) == 0
    assert capsys.readouterr().out.startswith("1.6449340668")
    assert main(["eval", "bessel-k", "--nu", "0.5", "--x", "1"]) == 0
    assert capsys.readouterr().out.startswith("0.4610685044")
    assert main(["eval", "sigma", "--a", "0", "--n", "6"]) == 0
    assert capsys.readouterr().out.split() == ["4", "0"]


def test_eval_more_functions(capsys):
    for argv in (["eval", "gamma", "--s", "0.25"],
                 ["eval", "hurwitz", "--s", "1.5", "--a", "2.5"],
                 ["eval", "digamma", "--s", "0.5"],
                 ["eval", "xi", "--s", "0.5"],
                 ["eval", "big-xi", "--t", "0"],
                 ["eval", "bessel-j", "--nu", "0.25", "--x", "2"],
                 ["eval", "bessel-y", "--nu", "0.25", "--x", "2"],
                 ["eval", "li", "--x", "2"],
                 ["eval", "kernel", "--z", "0.5", "--x", "1"],
                 ["eval", "omega", "--x", "1", "--z", "0.4"],
                 ["eval", "lambda", "--x", "2", "--z", "0.5"]):
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert len(out.split()) == 2


def test_eval_domain_exit_3(capsys):
    assert main(["eval", "zeta", "--s", "1"]) == 3
    assert main(["eval", "omega", "--x", "1", "--z", "1.5"]) == 3
    # K holds up to |Im nu| = 5, in eval and inside a verifier's integrand.
    assert main(["eval", "bessel-k", "--nu", "0.5+5i", "--x", "2"]) == 0
    assert main(["eval", "bessel-k", "--nu", "0.5+5.5i", "--x", "2"]) == 3
    assert main(["verify", "mellin-k", "--s=6", "--nu=5+6i"]) == 3
    assert "|Im nu| <= 5" in capsys.readouterr().err


@pytest.mark.parametrize("argv,message", [
    (["eval", "li", "--x", "1+1i"], "--x must be real for li"),
    (["eval", "bessel-j", "--nu", "0.5+1i", "--x", "2"], "--nu must be real for bessel-j")])
def test_eval_real_only_flag_refuses_imaginary_part(argv, message, capsys):
    assert main(argv) == 64
    assert message in capsys.readouterr().err
    # A zero imaginary part is the real value, and bessel-k takes both complex.
    assert main(["eval", "bessel-y", "--nu", "0.5", "--x", "2+0i"]) == 0
    assert main(["eval", "bessel-k", "--nu", "0.5+1i", "--x", "2+1i"]) == 0


def test_eval_unknown_function():
    assert main(["eval", "nope"]) == 64


def test_eval_inapplicable_flag(capsys):
    # eval resolves its flags like verify does.
    assert main(["eval", "gamma", "--x=7"]) == 64
    assert "--x do not apply" in capsys.readouterr().err


def test_eval_complex_argument(capsys):
    assert main(["eval", "zeta", "--s", "0.5+3i"]) == 0
    re_s, im_s = capsys.readouterr().out.split()
    assert abs(float(im_s)) > 0


# What `list` prints for each identity: its flags and its tolerance.
# Tools read the tol column, so a registry change must keep both.
_LISTED = {
    "bessel-hurwitz-sum": ("alpha, z, terms", "1e-05"),
    "hurwitz-corollary": ("z, alpha, terms", "1e-06"),
    "hurwitz-corollary-z0": ("alpha, terms", "1e-06"),
    "hurwitz-modular": ("z, alpha, terms", "1e-08"),
    "laplace-bessel": ("alpha, y, z", "1e-09"),
    "mellin-k": ("s, nu, q", "1e-09"),
    "omega-laplace": ("alpha, z, terms", "1e-06"),
    "omega-modular": ("alpha, z", "1e-06"),
    "omega-self-reciprocal": ("x, z, terms", "1e-06"),
    "pair-reciprocity": ("pair, pair_alpha, z, x", "1e-06"),
    "rg-corollary": ("z, alpha, terms", "1e-08"),
    "rg-corollary-z0": ("alpha, terms", "1e-08"),
    "rg-formula": ("z, alpha, terms", "1e-08"),
}


def test_list_command(capsys):
    assert main(["list"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines] == sorted(IDENTITIES)
    for line in lines:
        name = line.split()[0]
        entry = IDENTITIES[name]
        args, tol = _LISTED[name]
        assert f"{name:24s} ({args})  tol {tol}  {entry.summary}" == line
        assert entry.arg_names == tuple(args.split(", "))
        assert entry.tolerance == float(tol)


_TAKE_TERMS = sorted(name for name, (args, _) in _LISTED.items()
                     if "terms" in args)


@pytest.mark.parametrize("name", _TAKE_TERMS)
def test_terms_below_one_is_a_domain_error(name, capsys):
    # Every identity with a series truncation applies the same rule, in
    # verify and in sweep.
    assert main(["verify", name, "--terms=0"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "terms must be >= 1" in captured.err
    if "alpha" not in IDENTITIES[name].arg_names:
        return
    assert main(["sweep", name, "--terms=0", "--alpha-min=0.5",
                 "--alpha-max=2", "--steps=3"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "koshliakov: error: terms must be >= 1\n"
