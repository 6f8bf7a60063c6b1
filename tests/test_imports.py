"""`import dydila` loads no oracle, check suite or bench harness; their
names resolve on first use, from their own modules."""

import subprocess
import sys

import dydila
import dydila.checks
import dydila.oracle

from conftest import cli_env

LAZY_MODULES = ("dydila.oracle", "dydila.checks", "dydila.bench")


def test_import_loads_no_oracle_checks_or_bench():
    code = ("import sys, dydila; "
            f"print(sorted(m for m in {LAZY_MODULES!r} if m in sys.modules))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=cli_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_every_lazy_name_resolves_from_its_module():
    for name, module in dydila._LAZY.items():
        assert getattr(dydila, name) is getattr(getattr(dydila, module), name), name
    from dydila import CheckResult, run_checks  # noqa: F401  (the import form works)


def test_a_replaced_binding_is_seen_and_then_released(monkeypatch):
    # nothing is cached in the package: a wrapper installed in the module is
    # what dydila.run_checks returns, and its removal is seen too
    real = dydila.checks.run_checks
    with monkeypatch.context() as m:
        m.setattr(dydila.checks, "run_checks", len)
        assert dydila.run_checks is len
    assert dydila.run_checks is real
    assert "run_checks" not in vars(dydila) and "run_checks" in dir(dydila)


def test_unknown_name_is_an_attribute_error():
    assert not hasattr(dydila, "no_such_name")
