"""Self-test of the output checks in checks.py.

Usage: python3 bench/selftest.py

Takes real qexpand outputs at small sizes, requires every check to pass on
them, then changes one coefficient (or one count of the verify output) in a
copy and requires the check aimed at that change to fail.  qexpand's own
arithmetic only builds the altered copies; the checks never use it.  Exits 0 when
every check passed on the real output and failed on its altered copy.
"""

import contextlib
import copy
import io
import os
import random
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import checks  # noqa: E402
from qexpand import IntPolynomial, cli, ordering, verify  # noqa: E402

N = {"A": 9, "B": 6}
SAMPLE = 3


def _plus(terms, word, poly):
    """Copy of terms with the polynomial poly added to the coefficient of word."""
    num, den = (IntPolynomial(c) for c in terms[word])
    out = dict(terms)
    out[word] = ((num + den * IntPolynomial(poly)).coeffs, den.coeffs)
    return out


def mutations(system, terms, word):
    """check name -> a copy of terms with one coefficient changed so that
    this check, and possibly others, must fail."""
    num, den = terms[word]
    shifted = dict(terms)
    shifted[word] = ((0,) + num, den)  # c -> q*c
    dropped = {w: c for w, c in terms.items() if w != word}  # c -> 0
    out = {
        "word_set": dropped,
        "q2_closed_form": shifted,
        # c + (q-1)(q-2) agrees with c at q = 1 and q = 2
        "sympy": _plus(terms, word, (2, -3, 1)),
    }
    if system == "A":
        # c + m(q^2 - q), with m large enough to make the q coefficient negative
        m = 1 + max(map(abs, num))
        out["nonneg_polynomial"] = _plus(terms, word, (0, -m, m))
        out["q1_count"] = _plus(terms, word, (1,))  # c + 1
    return out


def main():
    rng = random.Random(0)
    failures = []

    def expect(label, results, should_fail):
        for name, msgs in results.items():
            if should_fail is None and msgs:
                failures.append(f"{label}: {name} failed on a real output: {msgs[0]}")
            elif name == should_fail and not msgs:
                failures.append(f"{label}: {name} passed on an altered output")
        print(f"{label}: " + ", ".join(
            f"{n}={'fail' if m else 'pass'}" for n, m in results.items()))

    for system, n in N.items():
        real = verify.expand_oracle(ordering.SYSTEMS[system], n)
        terms = checks.parse_terms(real.to_json())
        sample = checks.sample_words(system, n, terms, rng, SAMPLE)
        expect(f"{system} n={n} real", checks.check_expansion(system, n, terms, sample), None)
        word = sample[0]
        for target, altered in mutations(system, terms, word).items():
            expect(f"{system} n={n} {target} altered at {word!r}",
                   checks.check_expansion(system, n, altered, sample), target)

    reports = [
        {"n": r.n, "match": r.match, "mismatches": len(r.mismatches),
         "formula": r.formula_terms.to_json(), "oracle": r.oracle_terms.to_json()}
        for r in verify.verify_expansions(ordering.SYSTEM_B, N["B"])
    ]
    expect("lemma2 real", checks.check_lemma2(reports, N["B"], rng, SAMPLE), None)
    altered = copy.deepcopy(reports)
    altered[-1]["oracle"][0]["coeff"]["num"].insert(0, "0")  # c -> q*c
    expect("lemma2 oracle coefficient altered",
           checks.check_lemma2(altered, N["B"], rng, SAMPLE), "reports")

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["verify", "--suite", "all", "--format", "json"])
    real = out.getvalue()
    expect("verify-all real", {"verify_all": checks.check_verify_all(real, code)}, None)
    for label, old, new, exit_code in (
        ("one case fewer", '"cases": 41,', '"cases": 40,', 0),
        ("one failure", '"failures": 0,', '"failures": 1,', 0),
        ("exit code 1", "", "", 1),
    ):
        if old not in real:
            failures.append(f"verify-all: {old!r} not found in the real output")
        altered = real.replace(old, new, 1)
        expect(f"verify-all {label}",
               {"verify_all": checks.check_verify_all(altered, exit_code)}, "verify_all")

    for f in failures:
        print("SELF-TEST FAILURE: " + f)
    print("self-test " + ("failed" if failures else "passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
