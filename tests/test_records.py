"""The package's record types and what importing the CLI costs.

Every record is read-only and compares by its fields; a QuadratureSpec is
checked on every way of building one.  Importing the CLI loads the six
layer modules and neither `dataclasses` nor `json`, and `list` does not
load `json` either: JSON is loaded only where a report is written.
"""

import ast
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from koshliakov.errors import DomainError
from koshliakov.identities import (IDENTITIES, IdentityEntry, VerificationReport,
                                   verify_mellin_k)
from koshliakov.kernels import ReciprocalPair, pair_k_bessel
from koshliakov.quadrature import QuadratureResult, QuadratureSpec

LAYERS = ("specfun", "arith", "quadrature", "kernels", "reporting", "identities")


def _report():
    return VerificationReport("mellin-k", {"s": 2.0}, 1 + 0j, 1 + 1e-12j, 1e-12,
                              1e-12, {"quad_err": 1e-13}, 1e-8, True)


# Each maker builds a fresh record with the same fields on every call.
MAKERS = {
    "VerificationReport": _report,
    "QuadratureSpec": lambda: QuadratureSpec(abs_tol=1e-12),
    "QuadratureResult": lambda: QuadratureResult(1.5 + 0j, 1e-14, 15),
    "ReciprocalPair": lambda: pair_k_bessel(2.0),
    "IdentityEntry": lambda: IdentityEntry(verify_mellin_k, "Mellin transform of K"),
}
FIELDS = {
    "VerificationReport": ("identity_id", "params", "lhs", "rhs", "abs_diff",
                           "rel_diff", "budgets", "tolerance", "passed"),
    "QuadratureSpec": ("abs_tol", "rel_tol", "max_panels"),
    "QuadratureResult": ("value", "err_estimate", "nodes_used", "truncation_bound"),
    "ReciprocalPair": ("phi", "psi", "label", "Z_closed"),
    "IdentityEntry": ("runner", "summary", "defaults", "tolerance"),
}


@pytest.mark.parametrize("kind", sorted(MAKERS))
def test_record_fields_are_read_only(kind):
    record = MAKERS[kind]()
    for name in FIELDS[kind]:
        with pytest.raises(AttributeError):
            setattr(record, name, None)
    with pytest.raises(AttributeError):
        record.extra = None


def test_identity_entry_fields_cannot_be_deleted():
    with pytest.raises(AttributeError):
        del IDENTITIES["mellin-k"].summary


@pytest.mark.parametrize("kind", sorted(MAKERS))
def test_records_with_equal_fields_are_equal(kind):
    if kind == "ReciprocalPair":
        # pair_k_bessel makes new closures on every call, so equal fields
        # means the same functions.
        pair = MAKERS[kind]()
        assert pair == ReciprocalPair(*pair)
    else:
        assert MAKERS[kind]() == MAKERS[kind]()


def test_records_with_different_fields_differ():
    assert QuadratureSpec() != QuadratureSpec(abs_tol=1e-12)
    assert QuadratureResult(1.0, 0.0, 15) != QuadratureResult(1.0, 0.0, 31)
    assert IdentityEntry(verify_mellin_k, "a") != IdentityEntry(verify_mellin_k, "b")
    assert IdentityEntry(verify_mellin_k, "a") != ("a",)


def test_identity_entry_reads_defaults_from_its_runner():
    entry = IDENTITIES["mellin-k"]
    assert entry == IdentityEntry(verify_mellin_k, entry.summary)
    assert entry.defaults == {"s": 2.0, "nu": 0.0, "q": 1.0}
    assert entry.arg_names == ("s", "nu", "q")
    assert entry.tolerance == 1e-9


@pytest.mark.parametrize("build", [
    lambda: QuadratureSpec(abs_tol=0),
    lambda: QuadratureSpec(abs_tol=-1e-10),
    lambda: QuadratureSpec(rel_tol=-1e-10),
    lambda: QuadratureSpec(max_panels=0),
    lambda: QuadratureSpec()._replace(abs_tol=0),
    lambda: QuadratureSpec()._replace(max_panels=0),
    lambda: QuadratureSpec._make((1e-10, 1e-10, 0)),
], ids=["abs_tol=0", "abs_tol<0", "rel_tol<0", "max_panels=0", "_replace abs_tol",
        "_replace max_panels", "_make"])
def test_quadrature_spec_is_checked_on_every_path(build):
    with pytest.raises(DomainError):
        build()


def test_quadrature_spec_defaults_and_round_trips():
    spec = QuadratureSpec()
    assert (spec.abs_tol, spec.rel_tol, spec.max_panels) == (1e-10, 1e-10, 2000)
    assert spec._replace(rel_tol=1e-6) == QuadratureSpec(1e-10, 1e-6, 2000)
    assert pickle.loads(pickle.dumps(spec)) == spec
    assert type(spec._replace(rel_tol=1e-6)) is QuadratureSpec


def test_cli_start_up_loads_layers_without_dataclasses_or_json():
    root = Path(__file__).resolve().parents[1]
    probe = (
        "import contextlib, io, sys\n"
        "import koshliakov.cli as cli\n"
        "loaded = sorted(m for m in ('dataclasses', 'json') if m in sys.modules)\n"
        "layers = sorted(m[11:] for m in sys.modules if m.startswith('koshliakov.'))\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = cli.main(['list'])\n"
        "after_list = 'json' in sys.modules\n"
        "print(repr((loaded, layers, code, after_list)))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    loaded, layers, code, after_list = ast.literal_eval(done.stdout)
    assert loaded == []
    assert set(LAYERS) <= set(layers)
    assert code == 0
    assert not after_list
