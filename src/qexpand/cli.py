"""Command-line front end.

One verb per invocation: qint, qfact, coeff, phi, expand, normalize,
verify, eval.  Output goes to stdout as text (default) or JSON
(``--format json``); diagnostics go to stderr.  Exit status is 0 on
success, 1 when a verify suite reports failures or an internal error
occurs, and 2 on usage errors.  When the reader closes stdout early, the
rest of the output is dropped silently and the exit status is 1.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .freealgebra import NCPolynomial, format_word, parse_word
from .ordering import SYSTEM_A, SYSTEM_B, SYSTEMS, normalize
from .qnumbers import phi_closed, phi_recursive, q_factorial, q_int
from .verify import (
    SPECS,
    eval_at_root,
    expand_formula,
    verify_degenerations,
    verify_expansions,
    verify_identity_4i2,
    verify_phi,
    verify_recurrences,
)

# the paper's two systems, whose families are its closed forms, by name
CLOSED_FORM = {s.name: s for s, spec in SPECS.items() if spec.family}
SUITES = ("lemma1", "lemma2", "phi", "recurrences", "degenerations", "identity", "all")


def _at_least(low: int, prefix: str = ""):
    """An argparse type for integers >= low; prefix starts the range message."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
        if value < low:
            raise argparse.ArgumentTypeError(f"{prefix}must be >= {low}")
        return value

    return parse


def _word(text: str) -> str:
    try:
        return parse_word(text)
    except ValueError as err:
        raise argparse.ArgumentTypeError(str(err))


def _add_format(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--format", choices=("text", "json"), default="text", help="output format"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qexpand",
        description="Exact normal-ordered expansions in two q-deformed "
        "three-generator algebras.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("qint", help="print the q-integer [n]")
    p.add_argument("--n", type=_at_least(0), required=True)
    p.add_argument("--base", type=int, choices=(1, 2), default=1,
                   help="exponent base: 1 for q, 2 for q^2")
    _add_format(p)

    p = sub.add_parser("qfact", help="print the q-factorial [n]!")
    p.add_argument("--n", type=_at_least(0), required=True)
    p.add_argument("--base", type=int, choices=(1, 2), default=1)
    _add_format(p)

    p = sub.add_parser("coeff", help="print one expansion coefficient")
    p.add_argument("--system", choices=tuple(CLOSED_FORM), required=True)
    p.add_argument("--alpha", type=_at_least(0), required=True)
    p.add_argument("--beta", type=_at_least(0), required=True)
    p.add_argument("--gamma", type=_at_least(0), required=True)
    _add_format(p)

    p = sub.add_parser("phi", help="print the correction factor phi_beta")
    p.add_argument("--beta", type=_at_least(0), required=True)
    p.add_argument("--route", choices=("closed", "recursive"), default="closed")
    _add_format(p)

    p = sub.add_parser("expand", help="print the expansion of the n-th power")
    p.add_argument("--system", choices=tuple(CLOSED_FORM), required=True)
    p.add_argument("--n", type=_at_least(1), required=True)
    _add_format(p)

    p = sub.add_parser("normalize", help="normal-order a word")
    p.add_argument("--system", choices=tuple(SYSTEMS), required=True)
    p.add_argument("--word", type=_word, required=True,
                   help="a word over a, b, c; the empty string is the identity")
    _add_format(p)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("--suite", choices=SUITES, required=True)
    p.add_argument("--max-n", type=_at_least(1), default=None,
                   help="exponent bound for the lemma suites (defaults 8 and 6)")
    p.add_argument("--bound", type=_at_least(1), default=None,
                   help="index bound for the recurrences (defaults 10 and 8)")
    p.add_argument("--max-beta", type=_at_least(2), default=40)
    p.add_argument("--max-i", type=_at_least(1), default=20)
    p.add_argument("--binomial-bound", type=_at_least(1), default=12)
    p.add_argument("--multinomial-bound", type=_at_least(1), default=8)
    _add_format(p)

    p = sub.add_parser("eval", help="evaluate expansion coefficients at a root of unity")
    p.add_argument("--system", choices=tuple(CLOSED_FORM), required=True)
    p.add_argument("--n", type=_at_least(1), required=True)
    p.add_argument("--at-root", type=_at_least(3, "N "), required=True, metavar="N",
                   help="root order N >= 3; the point is sign * exp(2*pi*i/N)")
    p.add_argument("--sign", choices=("+", "-"), default="+")
    _add_format(p)

    return parser


def _print_value(value, fmt: str) -> None:
    """Print one value; its text is written part by part, so the whole
    text is never held in memory."""
    if fmt == "json":
        print(json.dumps(value.to_json()))
        return
    write = sys.stdout.write
    for part in value.str_parts():
        write(part)
    write("\n")


def _print_poly(poly: NCPolynomial, fmt: str) -> None:
    """Print a polynomial as _print_value would, one term at a time, so the
    whole text is never held in memory."""
    if fmt == "json":
        start, sep, end, parts = "[", ", ", "]", map(json.dumps, poly.json_terms())
    else:
        start, sep, end, parts = "", " + ", "", poly.str_parts()
    write = sys.stdout.write
    write(start)
    for i, part in enumerate(parts):
        if i:
            write(sep)
        write(part)
    write(end + "\n")


def _fmt_complex(value: complex) -> str:
    return f"{value.real:.12g}{value.imag:+.12g}j"


def _run_eval(args) -> int:
    expansion = expand_formula(CLOSED_FORM[args.system], args.n)
    rows = eval_at_root(expansion, args.at_root, args.sign)
    if args.format == "json":
        payload = [
            {"word": word, "value": {"re": value.real, "im": value.imag}}
            for word, value in rows
        ]
        print(json.dumps(payload))
    else:
        for word, value in rows:
            print(f"{format_word(word)}\t{_fmt_complex(value)}")
    return 0


def _run_verify(args) -> int:
    suite = args.suite
    records: list[dict] = []  # the JSON record of each suite run, in order
    for name, system, default_n in (("lemma1", SYSTEM_A, 8), ("lemma2", SYSTEM_B, 6)):
        if suite in (name, "all"):
            reports = verify_expansions(system, args.max_n or default_n)
            records.append(
                {
                    "suite": name,
                    "cases": len(reports),
                    "failures": sum(not r.match for r in reports),
                    "duration_ms": sum(r.duration_ms for r in reports),
                    "reports": [r.to_json() for r in reports],
                }
            )
    if suite in ("phi", "all"):
        records.append(verify_phi(args.max_beta).to_json())
    if suite in ("recurrences", "all"):
        records.append(verify_recurrences(SYSTEM_A, args.bound or 10).to_json())
        records.append(verify_recurrences(SYSTEM_B, args.bound or 8).to_json())
    if suite in ("degenerations", "all"):
        bounds = args.binomial_bound, args.multinomial_bound
        records.append(verify_degenerations(*bounds).to_json())
    if suite in ("identity", "all"):
        records.append(verify_identity_4i2(args.max_i).to_json())

    if args.format == "json":
        print(json.dumps({"suites": records}, indent=2))
    else:
        for r in records:
            print(f"{r['suite']}: {r['cases'] - r['failures']}/{r['cases']} match")
    return 1 if any(r["failures"] for r in records) else 0


def run(args: argparse.Namespace) -> int:
    if args.verb == "qint":
        _print_value(q_int(args.n, args.base), args.format)
    elif args.verb == "qfact":
        _print_value(q_factorial(args.n, args.base), args.format)
    elif args.verb == "coeff":
        theta = SPECS[CLOSED_FORM[args.system]].family
        _print_value(theta(args.alpha, args.beta, args.gamma), args.format)
    elif args.verb == "phi":
        route = phi_closed if args.route == "closed" else phi_recursive
        _print_value(route(args.beta), args.format)
    elif args.verb == "expand":
        _print_poly(expand_formula(CLOSED_FORM[args.system], args.n), args.format)
    elif args.verb == "normalize":
        result = normalize(NCPolynomial.from_word(args.word), SYSTEMS[args.system])
        _print_poly(result, args.format)
    elif args.verb == "verify":
        return _run_verify(args)
    elif args.verb == "eval":
        return _run_eval(args)
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        try:
            return run(parser.parse_args(argv))
        finally:
            sys.stdout.flush()
    except BrokenPipeError:
        # point stdout at devnull so the flush at exit cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except Exception as err:  # internal failures surface as exit 1
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
