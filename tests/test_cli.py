"""CLI end-to-end: exit codes, JSON schema, CSV byte-stability, SVG."""

import importlib.util
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
from koshliakov.cli import _PARSERS, _identity, build_parser, main, parse_complex_literal
from koshliakov.errors import ConvergenceError
from koshliakov.identities import IDENTITIES
from koshliakov.reporting import CSV_HEADER

from conftest import rel_err

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


# The CLI's process entry (cli.run) ends the process with os._exit after
# main, so nothing it prints may wait for the interpreter's teardown.
# PYTHONUNBUFFERED is dropped, so a child's stdout pipe is block-buffered
# and an unflushed byte would be lost.
_ROOT = Path(__file__).resolve().parents[1]


def _cold(args, **kw):
    env = {**os.environ, "PYTHONPATH": str(_ROOT / "src")}
    env.pop("PYTHONUNBUFFERED", None)
    kw.setdefault("stdout", subprocess.PIPE)
    return subprocess.run([sys.executable, *args], env=env, stderr=subprocess.PIPE, text=True,
                          timeout=300, **kw)


def test_parse_complex_literal():
    for text, value in (
            ("0.5", 0.5), ("-0.3", -0.3), ("0.5+0.25i", 0.5 + 0.25j), ("0.5-0.25i", 0.5 - 0.25j),
            ("0.25i", 0.25j), ("-i", -1j), ("i", 1j), ("1e-3i", 1e-3j), ("0.5-1e-2i", 0.5 - 0.01j),
            ("+i", 1j), ("0.5+i", 0.5 + 1j), ("1e+5i", 1e5j), ("1_0i", 10j),
            ("-.5-.5i", -0.5 - 0.5j), ("2I", 2j), (" 0.5 + 0.25i ", 0.5 + 0.25j)):
        assert parse_complex_literal(text) == value, text


@pytest.mark.parametrize("text", ["abc", "--1i", "1+-2i", "1+2ji", "(1+2i)", "1e+i",
                                  "0.5+0.25j", "", "0.5\t+0.25i", "0.5\n+0.25i"])
def test_parse_complex_literal_refuses(text):
    # Spaces are dropped; a tab or newline inside the literal is refused.
    with pytest.raises(ValueError):
        parse_complex_literal(text)


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


def test_sweep_exits_2_for_nan_rows_only(capsys):
    # verify exits 2 on a report that misses its tolerance; sweep writes
    # such rows as they are and exits 2 only for a nan row (one that raised).
    assert main(["verify", "rg-formula", "--tolerance", "1e-30"]) == 2
    capsys.readouterr()
    assert main(["sweep", "rg-formula", "--tolerance", "1e-30", "--alpha-min=0.5",
                 "--alpha-max=2", "--steps=3"]) == 0
    rows = capsys.readouterr().out.strip().split("\n")[1:]
    assert not any("nan" in row for row in rows)
    assert max(float(row.split(",")[-1]) for row in rows) > 1e-30


def test_verify_domain_exit_3(capsys):
    code = main(["verify", "rg-corollary", "--z", "1.5"])
    err = capsys.readouterr().err
    assert code == 3
    assert "|Re z| < 1 required" in err


def test_verify_rg_example(capsys):
    code = main(["verify", "rg-corollary", "--z", "0.5", "--alpha", "1"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    assert doc["rel_diff"] <= 1e-8


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
    # The default z = 0.5 is outside the transform's open |Re z| < 1/2,
    # the one rule for where a pair is reciprocal.
    code = main(["verify", "pair-reciprocity"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert "|Re z| < 1/2" in captured.err


@pytest.mark.parametrize("argv", [["verify", "laplace-bessel", "--z=0.3+0.2i"],
                                  ["verify", "omega-self-reciprocal", "--z=0.3+0.2i"],
                                  ["verify", "pair-reciprocity", "--z=0.1+0.1i"],
                                  ["eval", "kernel", "--z=0.5+0.1i"]])
def test_j_kernel_identities_refuse_complex_z(argv, capsys):
    # J and Y are real-order only, and one rule says so.
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "J and Y take a real order only" in captured.err


@pytest.mark.parametrize("argv,message", [
    (["verify", "mellin-k", "--q=-1"], "q > 0 required"),
    (["verify", "laplace-bessel", "--y=-1"], "y > 0 required"),
    (["verify", "omega-self-reciprocal", "--x=-1"], "x > 0 required"),
    (["verify", "pair-reciprocity", "--z=0.3", "--x=-1"], "x must be positive"),
    (["verify", "pair-reciprocity", "--pair=dixon-ferrar", "--z=0", "--x=-1"],
     "x must be positive"),
    (["verify", "pair-reciprocity", "--pair=nope"], "unknown pair 'nope'"),
    (["eval", "omega", "--z=1.5"], "|Re z| < 1 required"),
    # Where a pair is reciprocal is the transform's rule; a pair's own
    # functions may narrow it, as the Dixon-Ferrar pair's do to z = 0.
    (["verify", "pair-reciprocity", "--z=0.7"], "first Koshliakov transform needs |Re z| < 1/2"),
    (["verify", "pair-reciprocity", "--z=0.7+0.1i"], "J and Y take a real order only"),
    (["verify", "pair-reciprocity", "--pair=dixon-ferrar", "--z=0.25"],
     "the Dixon-Ferrar pair is defined at z=0 only")])
def test_verify_and_eval_domain_messages(argv, message, capsys):
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err


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
            "--alpha-max", "2", "--steps", "3"]
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
                 "--alpha-max", "2", "--steps", "3",
                 "--out", str(tmp_path / "c.csv"), "--svg", str(svg)])
    assert code == 0
    root = ET.parse(str(svg)).getroot()
    assert root.tag == "{http://www.w3.org/2000/svg}svg"
    assert root.get("version") == "1.1"
    polylines = root.findall(".//{http://www.w3.org/2000/svg}polyline")
    assert len(polylines) == 2


def test_sweep_invalid_config_usage(tmp_path, capsys):
    # An alpha grid outside [1/4, 4] reaches the verifier, which refuses it
    # as verify does: exit 3, its message and no CSV.  The grid's shape
    # (fewer than 2 steps, alpha-min above alpha-max) and an identity
    # without alpha are usage errors.
    out = tmp_path / "s.csv"
    for alpha_min in ("0.1", "-1"):
        assert main(["sweep", "rg-formula", "--alpha-min", alpha_min,
                     "--alpha-max", "2", "--steps", "3", "--out", str(out)]) == 3
        captured = capsys.readouterr()
        assert captured.out == "" and not out.exists()
        assert "alpha must lie in [1/4, 4]" in captured.err
    assert main(["sweep", "rg-formula", "--alpha-min", "0.5",
                 "--alpha-max", "2", "--steps", "1"]) == 64
    assert main(["sweep", "rg-formula", "--alpha-min", "2",
                 "--alpha-max", "1", "--steps", "3"]) == 64
    assert "alpha-min must not exceed alpha-max" in capsys.readouterr().err
    assert main(["sweep", "mellin-k"]) == 64  # no alpha to sweep


def test_sweep_grid_ends_at_alpha_max(capsys):
    # 0.3 + 19 (3.7/19) rounds to 4.000000000000001: each point is capped
    # at alpha-max, so a grid inside [1/4, 4] is accepted and ends there.
    assert main(["sweep", "rg-formula", "--alpha-min=0.3", "--alpha-max=4",
                 "--steps=20"]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert len(lines) == 21 and float(lines[-1].split(",")[0]) == 4.0


def test_sweep_degenerate_grid_prints_every_row(capsys):
    # alpha-min = alpha-max gives tied alphas; rows sort on alpha alone,
    # since complex sides have no order.
    assert main(["sweep", "rg-formula", "--alpha-min=1", "--alpha-max=1", "--steps=3"]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == CSV_HEADER and len(lines) == 4
    assert [line.split(",")[0] for line in lines[1:]] == ["1.0"] * 3
    assert len(set(lines[1:])) == 1


@pytest.mark.parametrize("flag", ["--out", "--svg"])
def test_sweep_unwritable_path_is_a_usage_error(flag, tmp_path, capsys):
    # A path that cannot be written exits 64 with one error line that
    # names it, no traceback, and no CSV on stdout.
    path = tmp_path / "missing" / "sweep.out"
    assert main(["sweep", "rg-formula", "--alpha-min=0.5", "--alpha-max=2",
                 "--steps=2", flag, str(path)]) == 64
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1
    assert captured.err.startswith(f"koshliakov: error: cannot write {path}: ")


@pytest.mark.parametrize("name", sorted(name for name, entry in IDENTITIES.items()
                                        if "alpha" in entry.arg_names))
def test_out_of_range_alpha_is_the_same_error_in_verify_and_sweep(name, capsys):
    # Each verifier is the one place that checks its alpha, so verify and
    # sweep refuse alpha = 5 alike.
    assert main(["verify", name, "--alpha", "5"]) == 3
    message = capsys.readouterr().err
    assert main(["sweep", name, "--alpha-max", "5"]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == message
    assert "alpha must lie in [1/4, 4]" in message


@pytest.mark.parametrize("tolerance", ["inf", "0", "-1", "nan"])
@pytest.mark.parametrize("command", [
    ["verify", "bessel-hurwitz-sum"],
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
    ["sweep", "rg-formula", "--steps=2", "--z=-inf"],
    ["sweep", "rg-formula", "--alpha-max=inf"],
    ["sweep", "rg-formula", "--alpha-min=nan"]])
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
    # A runner's parameters are its CLI flags, each of a type the CLI
    # parses, then tolerance: there is no other knob.
    verify_flags = build_parser().parse_args(["verify", "x"]).params
    for name, entry in IDENTITIES.items():
        params = tuple(inspect.signature(entry.runner).parameters)
        assert params == entry.arg_names + ("tolerance",), name
        assert all(flag in verify_flags for flag in entry.arg_names), name
        assert all(type(d) in _PARSERS for d in entry.defaults.values()), name
        assert "spec" not in params, name


def test_flag_kinds_come_from_the_defaults():
    # A flag parses as the widest type among the defaults that name it:
    # complex over float, and str.
    args = build_parser().parse_args(["verify", "x", "--z=0.5", "--alpha=2", "--x=1",
                                      "--s=3", "--pair=dixon-ferrar", "--pair-alpha=2"])
    assert [type(getattr(args, name)) for name in ("z", "alpha", "x", "s", "pair",
                                                   "pair_alpha")] == \
        [complex, float, float, complex, str, float]
    assert build_parser().parse_args(["eval", "li", "--x=2", "--n=3"]).x == 2 + 0j
    with pytest.raises(SystemExit):
        build_parser().parse_args(["verify", "x", "--alpha=1+1i"])


def test_sweep_inapplicable_flag_usage(capsys):
    # sweep resolves its flags like verify does.
    assert main(["sweep", "rg-corollary", "--x", "3", "--s", "4"]) == 64
    err = capsys.readouterr().err
    assert "--s, --x do not apply" in err
    assert main(["sweep", "rg-corollary-z0", "--z", "0.5", "--steps", "2"]) == 64


@pytest.mark.parametrize("name,flags", [
    ("rg-corollary", ["--z", "1.5"]),
    ("rg-corollary", ["--z=-1+0.2i"]),
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


# The sweeps whose lambda sides come from one lambda_sum call over the
# grid (hurwitz-modular's over the alphas and their reciprocals).
_LAMBDA_SWEEPS = {
    "hurwitz-corollary": _HZ_SWEEP,
    "omega-laplace": _OMEGA_SWEEPS["omega-laplace"],
    "hurwitz-modular": ["sweep", "hurwitz-modular", "--z=-0.4+0.3i", "--alpha-min",
                        "0.5", "--alpha-max", "2", "--steps", "5"],
    "bessel-hurwitz-sum": ["sweep", "bessel-hurwitz-sum", "--z=0.3+0.2i", "--alpha-min",
                           "0.5", "--alpha-max", "2", "--steps", "5"],
}
# The sweeps whose alphas share one half-line integral (hurwitz-corollary-z0
# over the alphas and their reciprocals) besides the Omega Laplace ones.
_HALF_LINE_SWEEPS = {
    "laplace-bessel": ["sweep", "laplace-bessel", "--alpha-min", "0.5", "--alpha-max", "2",
                       "--steps", "5"],
    "bessel-hurwitz-sum": _LAMBDA_SWEEPS["bessel-hurwitz-sum"],
    "hurwitz-corollary-z0": ["sweep", "hurwitz-corollary-z0", "--alpha-min", "0.5",
                             "--alpha-max", "2", "--steps", "5"],
}


@pytest.mark.parametrize("name", sorted(_HALF_LINE_SWEEPS))
def test_sweep_shared_half_line_failure_fails_every_row(name, tmp_path, capsys, monkeypatch):
    # The rows' integrals are one vector integral: its failure fails every
    # row with nan fields and exit 2, reported once.
    def broken(*args, **kwargs):
        raise ConvergenceError("synthetic failure")

    monkeypatch.setattr(identities, "integrate_half_line", broken)
    out = tmp_path / "s.csv"
    assert main(_HALF_LINE_SWEEPS[name] + ["--out", str(out)]) == 2
    rows = out.read_text().strip().split("\n")[1:]
    assert len(rows) == 5
    assert all(row.split(",")[1:] == ["nan"] * 6 for row in rows)
    assert capsys.readouterr().err.count("synthetic failure") == 1


@pytest.mark.parametrize("name,expected", [
    ("laplace-bessel", ["integrate_half_line"]),
    ("bessel-hurwitz-sum", ["integrate_half_line"]),
    ("hurwitz-corollary-z0", ["integrate_half_line", "integrate_finite"])],
    ids=["laplace-bessel", "bessel-hurwitz-sum", "hurwitz-corollary-z0"])
def test_sweep_quadrature_calls_do_not_grow_with_steps(name, expected, monkeypatch):
    # No verifier integrates per alpha: 2 steps and 9 make the same calls.
    calls = []
    for fn in ("integrate_half_line", "integrate_finite"):
        def counted(*args, _fn=fn, _orig=getattr(identities, fn), **kwargs):
            calls.append(_fn)
            return _orig(*args, **kwargs)

        monkeypatch.setattr(identities, fn, counted)
    for steps in (2, 9):
        calls.clear()
        assert main(["sweep", name, "--alpha-min=0.5", "--alpha-max=2",
                     f"--steps={steps}"]) == 0
        assert calls == expected, steps


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

    def broken(z, alpha):
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


@pytest.mark.parametrize("argv", [
    ["verify", "omega-laplace", "--z=-0.965"],
    ["verify", "laplace-bessel", "--z=-0.79", "--alpha=3.9854656853002615",
     "--y=7.323523068193867"]], ids=["omega-head", "cancelling-head"])
def test_report_over_its_budgets_exits_2(argv, capsys):
    # Each meets its tolerance, but its tanh-sinh head under-reports its
    # error (ROADMAP item 2): abs_diff is 26x and 10x the budget sum, so the
    # budgets are no bounds and the report fails.
    assert main(argv) == 2
    report = json.loads(capsys.readouterr().out)
    budget = sum(v for k, v in report["budgets"].items() if not k.endswith("_diff"))
    assert report["pass"] is False
    assert 5.0 * budget < report["abs_diff"] < IDENTITIES[argv[1]].tolerance


def test_eval_bessel_at_large_order(golden, capsys):
    # Between 3|nu| and nu^2/4 the Hankel expansion cannot start: its
    # second term is larger than its first.
    for name, nu, x, key in (("bessel-j", "20.5", "70", "bessel_j_20p5_70"),
                             ("bessel-y", "-30", "100", "bessel_y_m30_100")):
        assert main(["eval", name, f"--nu={nu}", f"--x={x}"]) == 0
        re, im = map(float, capsys.readouterr().out.split())
        assert abs(re - golden[key].real) < 1e-13 * abs(golden[key]) and im == 0.0


def test_eval_domain_exit_3(capsys):
    assert main(["eval", "zeta", "--s", "1"]) == 3
    assert main(["eval", "omega", "--x", "1", "--z", "1.5"]) == 3
    assert main(["eval", "hurwitz", "--s=-2.948-3.193i", "--a=0.587+0.340i"]) == 3
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


def test_eval_zeta_refuses_a_huge_shift_before_gamma_warns():
    # At s = -1e12 the reflection's zeta*(1 - s) refuses its shift before
    # Gamma(1 - s) is formed: stderr holds the error line and nothing else.
    root = Path(__file__).resolve().parents[1]
    done = subprocess.run([sys.executable, "-m", "koshliakov.cli", "eval", "zeta", "--s=-1e12"],
                          env={**os.environ, "PYTHONPATH": str(root / "src")},
                          capture_output=True, text=True, timeout=300)
    assert (done.returncode, done.stdout) == (3, "")
    assert done.stderr == ("koshliakov: error: Euler-Maclaurin shift of 4e+11 terms "
                           "exceeds the bound\n")


def test_eval_zeta_far_left_prints_no_warning():
    # Gamma(1 - s) overflows there, not zeta(s): the reflection goes
    # through log_gamma, and a value past the double range is an error.
    for s, code, out, err in (
            ("-171.5", 0, "4.7393023305511e+172 0\n", ""),
            ("-300.5", 3, "", "koshliakov: error: zeta(s) at s=(-300.5+0j) exceeds the "
                              "double range\n")):
        done = _cold(["-m", "koshliakov.cli", "eval", "zeta", f"--s={s}"])
        assert (done.returncode, done.stdout, done.stderr) == (code, out, err)


@pytest.mark.parametrize("argv, message", [
    (["gamma", "--s=171.7"], "gamma(z) at z=(171.7+0j)"),
    (["gamma", "--s=200"], "gamma(z) at z=(200+0j)"),
    (["gamma", "--s=64733443777.99468"], "gamma(z) at z=(64733443777.99468+0j)"),
    (["xi", "--s=440"], "xi(s) at s=(440+0j)")])
def test_eval_gamma_and_xi_past_the_double_range_exit_3(argv, message):
    # A typed error, not nan and no RuntimeWarning on stderr.
    done = _cold(["-m", "koshliakov.cli", "eval", *argv])
    assert (done.returncode, done.stdout, done.stderr) == (
        3, "", f"koshliakov: error: {message} exceeds the double range\n")


def test_eval_zeta_at_trivial_zeros_and_large_height(golden, capsys):
    # 0 at the trivial zeros; left of Re s = 1/2 past |Im s| = 452 a finite
    # value (a RuntimeWarning would raise under pytest's filter).
    for s in ("-2", "-100", "-200"):
        assert main(["eval", "zeta", f"--s={s}"]) == 0
        assert capsys.readouterr() == ("0 0\n", "")
    for s, key in (("0.3+500i", "zeta_0p3_500i"), ("-0.5+500i", "zeta_m0p5_500i")):
        assert main(["eval", "zeta", f"--s={s}"]) == 0
        out, err = capsys.readouterr()
        assert err == "" and rel_err(complex(*map(float, out.split())), golden[key]) < 1e-12


@pytest.mark.parametrize("argv, message", [
    (["sigma", "--a=800", "--n=6"], "sigma_a(6) at a=(800+0j) exceeds the double range"),
    (["sigma", "--a=2.8e299", "--n=1649296625"],
     "sigma_a(1649296625) at a=(2.8e+299+0j) exceeds the double range"),
    (["omega", "--x=1.2686935041313472", "--z=1.95e-130-9892227723.8i"],
     "bessel_k supports |Im nu| <= 5")])
def test_eval_overflow_is_a_typed_error(argv, message, capsys):
    # An overflowing power or phase is refused with exit 3, not a traceback.
    assert main(["eval", *argv]) == 3
    assert capsys.readouterr().err == f"koshliakov: error: {message}\n"


def test_eval_unknown_function():
    assert main(["eval", "nope"]) == 64


@pytest.mark.parametrize("flag", [["--mode", "definition"], ["--terms", "50"]])
def test_eval_omega_takes_x_and_z_only(flag):
    # omega picks its form from x: there is no mode or term count to set.
    with pytest.raises(SystemExit) as exc:
        main(["eval", "omega", "--x", "1", *flag])
    assert exc.value.code == 64


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
    "bessel-hurwitz-sum": ("alpha, z", "1e-05"),
    "hurwitz-corollary": ("z, alpha", "1e-06"),
    "hurwitz-corollary-z0": ("alpha", "1e-06"),
    "hurwitz-modular": ("z, alpha", "1e-08"),
    "laplace-bessel": ("alpha, y, z", "1e-09"),
    "mellin-k": ("s, nu, q", "1e-09"),
    "omega-laplace": ("alpha, z", "1e-06"),
    "omega-modular": ("alpha, z", "1e-06"),
    "omega-self-reciprocal": ("x, z", "1e-06"),
    "pair-reciprocity": ("pair, pair_alpha, z, x", "1e-06"),
    "rg-corollary": ("z, alpha", "1e-08"),
    "rg-corollary-z0": ("alpha", "1e-08"),
    "rg-formula": ("z, alpha", "1e-08"),
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


# The identities whose sides include a truncated series.
_SERIES_IDENTITIES = ["bessel-hurwitz-sum", "hurwitz-corollary", "hurwitz-corollary-z0",
                      "hurwitz-modular", "omega-laplace", "omega-self-reciprocal",
                      "rg-corollary", "rg-corollary-z0", "rg-formula"]


@pytest.mark.parametrize("name", _SERIES_IDENTITIES)
def test_terms_flag_is_a_usage_error(name, capsys):
    # Every series carries its own bound for the terms it leaves out, so
    # there is no term count to set, in verify or in sweep.
    for argv in (["verify", name, "--terms", "5"],
                 ["sweep", name, "--terms", "5", "--steps=2"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 64
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unrecognized arguments: --terms 5" in captured.err


def test_same_numbers_commands_are_cli_commands():
    # tools/same_numbers.py compares two trees over a fixed command list;
    # a flag or identity the CLI no longer takes would fail both trees the
    # same way and read "identical".
    path = Path(__file__).resolve().parents[1] / "tools" / "same_numbers.py"
    spec = importlib.util.spec_from_file_location("same_numbers", path)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    parser = build_parser()
    for command in tool.COMMANDS:
        try:
            args = parser.parse_args(list(command))
        except SystemExit:
            pytest.fail(f"{' '.join(command)}: not a CLI command")
        if args.command in ("verify", "sweep"):
            _identity(args)


@pytest.mark.parametrize("argv,code", [
    (["verify", "mellin-k", "--s=2", "--nu=0", "--q=1"], 0),
    (["verify", "mellin-k", "--s=2", "--nu=0", "--q=1", "--tolerance=1e-30"], 2),
    (["verify", "rg-corollary", "--z=1.5"], 3),
    (["verify", "nope"], 64)], ids=["pass", "fail", "domain", "usage"])
def test_cold_verify_prints_what_main_prints(argv, code, capsys):
    done = _cold(["-m", "koshliakov.cli", *argv])
    assert main(argv) == code
    captured = capsys.readouterr()
    assert (done.returncode, done.stdout, done.stderr) == (code, captured.out, captured.err)
    if code in (0, 2):
        jsonschema.validate(json.loads(done.stdout), REPORT_SCHEMA)


def test_cold_sweep_to_a_pipe_prints_every_line(tmp_path):
    # About 157 kB, past a pipe's 64 KiB buffer: the reader drains the pipe
    # while the child writes, and the last block leaves at the flush.
    grid = ["sweep", "rg-formula", "--alpha-min=0.25", "--alpha-max=4", "--steps=1500"]
    done = _cold(["-m", "koshliakov.cli", *grid])
    out = tmp_path / "sweep.csv"
    assert main([*grid, f"--out={out}"]) == 0
    assert done.returncode == 0 and len(done.stdout) > 150_000
    assert done.stdout == out.read_text()


# Runs the CLI as `python -m` does, after {setup}, and says whether the
# interpreter came back from it.
_AFTER_RUN = """
import runpy, sys
{setup}
sys.argv = ["koshliakov", "list"]
try:
    runpy.run_module("koshliakov.cli", run_name="__main__")
finally:
    print("came back")
"""


def test_cold_call_runs_atexit_handlers_and_ends_in_run():
    done = _cold(["-c", _AFTER_RUN.format(setup="import atexit\n"
                                                 "atexit.register(print, 'atexit ran')")])
    assert done.returncode == 0, done.stderr
    # The handler's line comes last and "came back" never: the process
    # ended inside run.
    lines = done.stdout.splitlines()
    assert len(lines) == len(IDENTITIES) + 1 and lines[-1] == "atexit ran"


@pytest.mark.parametrize("setup", ["sys.settrace(lambda *a: None)",
                                   "sys.setprofile(lambda *a: None)"],
                         ids=["tracer", "profiler"])
def test_cold_call_under_a_tracer_exits_normally(setup):
    done = _cold(["-c", _AFTER_RUN.format(setup=setup)])
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "came back"


def test_cold_call_under_cprofile_prints_the_stats():
    done = _cold(["-m", "cProfile", "-m", "koshliakov.cli", "list"])
    assert done.returncode == 0, done.stderr
    assert "function calls" in done.stdout and "Ordered by" in done.stdout


def test_cold_call_under_python_i_reaches_the_prompt():
    done = _cold(["-i", "-m", "koshliakov.cli", "list"], input="print('inspected')\n")
    assert "inspected" in done.stdout


def test_cold_call_to_a_closed_pipe_exits_as_main_does():
    # The flush fails, so the interpreter's own exit reports it, as it
    # does for sys.exit(main()): status 120 and its message.
    read, write = os.pipe()
    os.close(read)
    try:
        runs = [_cold(args, stdout=write) for args in (
            ["-m", "koshliakov.cli", "list"],
            ["-c", "import sys; from koshliakov.cli import main; sys.exit(main(['list']))"])]
    finally:
        os.close(write)
    assert runs[0].returncode == runs[1].returncode == 120
    assert runs[0].stderr == runs[1].stderr and "BrokenPipeError" in runs[0].stderr


def test_cold_call_with_stdout_closed_exits_0():
    # With fd 1 closed at start, sys.stdout is None and there is nothing to flush.
    done = _cold(["-m", "koshliakov.cli", "list"], stdout=None, preexec_fn=lambda: os.close(1))
    assert (done.returncode, done.stderr) == (0, "")
