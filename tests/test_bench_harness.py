"""The benchmark harness under bench/ still runs against the package.

The tracer looks up package names (``poly_gcd``, ``IntPolynomial.exact_div``,
the theta tables' ``cache_info``) by name, so a package change that renames
or deletes one of them breaks ``bench/run.py --trace 1``; these tests catch
that in the test suite.
"""

import importlib.util
import os
import subprocess
import sys

from qexpand import verify
from qexpand.ordering import SYSTEM_B

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join(ROOT, "bench")


def _load_tracer():
    spec = importlib.util.spec_from_file_location(
        "tracer", os.path.join(BENCH, "tracer.py")
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_selftest_passes():
    result = subprocess.run(
        [sys.executable, os.path.join(BENCH, "selftest.py")],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stdout + result.stderr


def test_tracer_installs_reports_and_restores():
    tracing = _load_tracer()
    owners = list(tracing.MODULES) + [cls for cls, _ in tracing.METHODS.values()]
    before = [(owner, dict(vars(owner))) for owner in owners]

    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert tracer._restore, "the tracer rebound nothing"
        reports = verify.verify_expansions(SYSTEM_B, 4)
        # the oracle multiplies packed integers and the recurrences sum
        # numerators, not polynomial products; the identity suite still
        # multiplies IntPolynomials, (1+q) [2i+1]'
        verify.verify_recurrences(SYSTEM_B, 4)
        verify.verify_identity_4i2(4)
    finally:
        tracer.uninstall()

    assert all(r.match for r in reports)
    report = tracer.report()
    assert report["stats"]["verify"][0] > 0
    assert report["stats"]["exactarith.mul"][0] > 0
    for owner, names in before:
        for name, value in names.items():
            assert vars(owner)[name] is value, f"{owner.__name__}.{name} not restored"
