"""The benchmark's workloads: one fixed call into qexpand each.

Shared by the parent (``run.py``), which checks the outputs, and the child
(``child.py``), which makes the call.  Sizes are fixed, so every seed gives
the program the same inputs; the seed only picks which coefficients the
checks send to sympy.
"""

# name -> (kind, system, size).  "library" workloads call a function of
# qexpand.verify with (system, size); "cli" runs `qexpand <CLI_ARGV>`.
WORKLOADS = {
    # Every System-A coefficient is a polynomial: time goes to IntPolynomial
    # multiply, NCPolynomial products and the rewrite engine; no gcd runs.
    "oracle-A": ("library", "expand_oracle", "A", 24),
    # Lemma 2 with both routes for every n up to the size: the (1-q)
    # denominator of xi puts a gcd behind every coefficient add, and the
    # rewrite memo carries over from each n to the next.
    "lemma2": ("library", "verify_expansions", "B", 11),
    # Closed-form route only: quotients of q-factorials, each reduced by a
    # full gcd; the rewrite engine never runs.
    "formula-A": ("library", "expand_formula", "A", 24),
    # The CLI with default bounds: thousands of small-operand operations,
    # where per-call overhead dominates.
    "verify-all": ("cli", None, None, None),
}

CLI_ARGV = ["verify", "--suite", "all", "--format", "json"]
