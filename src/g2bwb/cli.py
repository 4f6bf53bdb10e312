"""Command-line front end.

Subcommands: bott, ext, tensor, restrict, report, modchar.  Weights are two
integers in fundamental-weight coordinates.  Exit codes: 0 success, 2 usage
error, 3 when a table or multiplicity the command needs is not certified,
4 when a certified check fails (a nonzero splitting Ext^1 among them).
Every report decides its own ``passed`` verdict (chevalley's when its four
blocks do), which ``_cmd_report`` alone maps to 0 or 4 after printing the
report, and its text ends in that verdict too.  The parser and every command
refuse input outside the supported domain by raising ``UsageError``, and a
library exception that escapes a command maps to 3 or 4; ``main`` alone turns
each into its exit code and one line on stderr.
``--p`` takes a prime of at least ``MIN_P`` and below ``PRIME_LIMIT``, and at most
``RANK_MAX_P`` for ``report rank`` and ``modchar``.  Set G2BWB_LOG for audit output on stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import lru_cache

from .rootdata import ParabolicId, Weight
from .charring import dominant_multiplicities, restrict_to_P, weyl_dim
from .cohomology import DEFAULT_P, MIN_P, EulerMismatch, bott_line
from .extcollection import (AmbiguousTable, costandard_factors, ext_table,
                            filtration_to_latex, frobenius_report, full_collection_report,
                            object_by_name)
from .karoubi import default_targets, verify_generation
from .modchar import (InconsistentChoice, Undecided, rank_identity_check, resolved_oracle,
                      restricted_weight)
from .chevalley import chevalley_verify
from . import weyl

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_AMBIGUOUS = 3
EXIT_FAILED = 4

# Largest --box of report karoubi: the rule count grows with the box squared, and each compiled
# rule set stays cached (cold on 2 cores, --box 32 takes 0.2-0.3 s, 0.05 s of it compiling, 21 MB).
KAROUBI_MAX_BOX = 32

# Largest coordinate of a weight that tensor and restrict accept: the time of
# restrict grows steeply with it (on 2 cores, cold, restrict 5 5 takes 0.12-0.15 s,
# 6 6 0.2 s and 8 8 0.4 s, while tensor 5 5 5 5 takes 0.1 s).
MAX_WEIGHT = 5

# Largest --p of report rank and modchar, which resolve the simple characters
# through the rank-p^5 identity: their time grows with p (on 2 cores, cold,
# report rank takes about 0.15 s at p = 43, 0.25 s at p = 61 and 0.6-0.8 s at
# p = 101, each under 19 MB; modchar --w s1s2 --p 101 about 0.5 s and 18.4 MB).
# The other commands take any prime below PRIME_LIMIT.
RANK_MAX_P = 101

# Every --p must be below this: the least strong pseudoprime to all the bases 2, 3,
# ..., 37 of _is_prime (Sorenson and Webster, Math. Comp. 86, 2017), which is exact
# below it and would pass it.
PRIME_LIMIT = 318665857834031151167461


def _audit_enabled() -> bool:
    return bool(os.environ.get("G2BWB_LOG"))


def _parabolic(name: str) -> ParabolicId:
    return ParabolicId.SHORT if name == "short" else ParabolicId.LONG


def _emit(args, to_json, to_text, to_latex=None) -> None:
    """Render and print the requested format only.  Each payload is a
    callable without arguments; ``--format latex`` is offered only where
    there is one."""
    if args.format == "json":
        print(json.dumps(to_json(), sort_keys=True))
    elif args.format == "latex":
        print(to_latex())
    else:
        print(to_text())


class UsageError(Exception):
    """Input outside the supported domain: ``main`` prints the message as one
    line on stderr and exits 2."""


def _check_rank_p(p: int) -> None:
    if p > RANK_MAX_P:
        raise UsageError(f"--p must be at most {RANK_MAX_P} for the rank identity")


def _check_weights(*weights: Weight) -> None:
    if not all(w.is_dominant() for w in weights):
        raise UsageError("the weight must be dominant")
    if max(max(w.a, w.b) for w in weights) > MAX_WEIGHT:
        raise UsageError(f"weight coordinates must be at most {MAX_WEIGHT}")


def _cmd_bott(args) -> int:
    r = bott_line(Weight(args.a, args.b), args.p)
    payload = {"vanishes": True} if r.vanishes else {
        "vanishes": False, "degree": r.degree, "weight": [r.weight.a, r.weight.b],
        "caveat": r.caveat}
    _emit(args, lambda: payload, lambda: str(r) + ("   [char-p caveat]" if r.caveat else ""))
    return EXIT_OK


def _cmd_ext(args) -> int:
    par = _parabolic(args.parabolic)
    try:
        X = object_by_name(par, args.x)
        Y = object_by_name(par, args.y)
    except KeyError as e:
        raise UsageError(f"unknown object: {e.args[0]}") from None
    t = ext_table(X, Y, args.p)

    def latex() -> str:
        rows = [f"\\mathrm{{Ext}}^{{{d}}} \\simeq " + " \\oplus ".join(
                    ("L" if lbl == "L" else "\\nabla") + f"({a},{b})" for lbl, a, b in entries)
                for d, entries in t.to_json()["degrees"].items()]
        return "\\\\\n".join(rows) if rows else "0"

    _emit(
        args,
        lambda: {"x": X.name, "y": Y.name, "p": args.p, **t.to_json()},
        lambda: f"Ext({X.name},{Y.name}) = {t.render()}",
        latex,
    )
    return EXIT_OK if t.exact else EXIT_AMBIGUOUS


def _cmd_tensor(args) -> int:
    lam, mu = Weight(args.a, args.b), Weight(args.c, args.d)
    _check_weights(lam, mu)
    factors = costandard_factors(lam, mu)
    text = " + ".join(
        (f"nabla({w.a},{w.b})" if m == 1 else f"{m}*nabla({w.a},{w.b})")
        for w, m in factors
    )
    latex = " \\oplus ".join(
        f"\\nabla({w.a},{w.b})" + (f"^{{\\oplus {m}}}" if m > 1 else "")
        for w, m in factors
    )
    _emit(args, lambda: {"factors": [[w.a, w.b, m] for w, m in factors]},
          lambda: text, lambda: latex)
    return EXIT_OK


def _cmd_restrict(args) -> int:
    par = _parabolic(args.parabolic)
    lam = Weight(args.a, args.b)
    _check_weights(lam)
    mod = restrict_to_P(lam, par)
    names = []
    for s in mod.atoms:
        if par.pair(s.highest) == 0:
            names.append(f"({s.highest.a},{s.highest.b})")
        else:
            names.append(f"nablaP({s.highest.a},{s.highest.b})")
    _emit(
        args,
        lambda: {"parabolic": args.parabolic,
                 "atoms": [[s.highest.a, s.highest.b] for s in mod.atoms]},
        lambda: " / ".join(names),
        lambda: filtration_to_latex(mod),
    )
    return EXIT_OK


def _cmd_report(args) -> int:
    kind, par = args.kind, _parabolic(args.parabolic)
    if kind == "chevalley":
        rep = chevalley_verify()
    elif kind == "collection":
        rep = full_collection_report(par, args.p)
    elif kind == "frobenius":
        rep = frobenius_report(par, args.p)
    elif kind == "karoubi":
        need = max(abs(w.a) for w in default_targets(par))
        if args.box < need:
            raise UsageError(f"--box must be at least {need} to hold the {args.parabolic} targets")
        if args.box > KAROUBI_MAX_BOX:
            raise UsageError(f"--box must be at most {KAROUBI_MAX_BOX}")
        rep, kb = verify_generation(par, amax=args.box, bmax=max(12, args.box - 4))
        if _audit_enabled():
            print(kb.audit_log(), file=sys.stderr)
    else:  # "rank", the last of the kinds that argparse accepts
        _check_rank_p(args.p)
        rep = rank_identity_check(args.p, par)
    _emit(args, rep.to_json, rep.to_text)
    return EXIT_OK if rep.passed else EXIT_FAILED


def _cmd_modchar(args) -> int:
    _check_rank_p(args.p)
    try:
        w = weyl.from_word(args.w)
    except ValueError:
        raise UsageError(f"bad word {args.w}") from None
    if w.length < args.w.count("s"):  # like ext, name an element by a reduced word only
        raise UsageError(f"{args.w} is not a reduced word")
    lam0 = restricted_weight(w, args.p)
    oracle, decided_by, points = resolved_oracle(args.p)
    # both from the row: expanding the torus character of L(w) would double the peak at p = 101
    dim = oracle._dim(lam0)
    support = sum(len({weyl.act(x, mu) for x in weyl.ALL_ELEMENTS})
                  for mu, m in dominant_multiplicities(oracle._row(lam0), lam0).items() if m)
    _emit(
        args,
        lambda: {"w": args.w, "p": args.p, "weight": [lam0.a, lam0.b],
                 "dim": dim, "support": support,
                 "costandard_dim": weyl_dim(lam0), "decided_by": decided_by},
        lambda: f"L({args.w}) = L({lam0.a},{lam0.b}): dim {dim}, "
        f"support {support} weights, inside nabla of dim {weyl_dim(lam0)} "
        f"[{decided_by}]",
    )
    if _audit_enabled() and points:
        for pt in points:
            print(f"resolved: {pt}", file=sys.stderr)
    return EXIT_OK


_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime(n: int) -> bool:
    """Miller-Rabin with the first twelve primes as witnesses: exact below
    ``PRIME_LIMIT``, and never slow, unlike trial division on a huge input."""
    if n < 2:
        return False
    for q in _WITNESSES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _prime(text: str) -> int:
    """argparse type for --p: a prime, at least MIN_P and below PRIME_LIMIT (see there)."""
    try:
        p = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if p >= PRIME_LIMIT:
        raise argparse.ArgumentTypeError(f"must be below {PRIME_LIMIT}, where primality is exact")
    if not _is_prime(p):
        raise argparse.ArgumentTypeError(f"{p} is not a prime")
    if p < MIN_P:
        raise argparse.ArgumentTypeError(f"p must be at least {MIN_P}, got {p}")
    return p


class _Parser(argparse.ArgumentParser):
    """Raises ``UsageError``, printed by ``main`` as one line, where argparse would print a
    usage block and exit; ``--help`` still exits 0.  Subparsers share the class."""

    def error(self, message: str):
        raise UsageError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="g2bwb",
        description="Exact cohomology, Ext tables and matrix checks for the G2 flag varieties",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, parabolic=True, prime=True, latex=True):
        if parabolic:
            p.add_argument("--parabolic", choices=("short", "long"), default="short")
        if prime:
            p.add_argument("--p", type=_prime, default=DEFAULT_P)
        formats = ("text", "json", "latex") if latex else ("text", "json")
        p.add_argument("--format", choices=formats, default="text")

    b = sub.add_parser("bott", help="cohomology of one line bundle on the flag variety")
    b.add_argument("a", type=int)
    b.add_argument("b", type=int)
    common(b, parabolic=False, latex=False)
    b.set_defaults(func=_cmd_bott)

    e = sub.add_parser("ext", help="Ext table between two collection objects")
    e.add_argument("x")
    e.add_argument("y")
    common(e)
    e.set_defaults(func=_cmd_ext)

    t = sub.add_parser("tensor", help="decompose a product of two costandard characters")
    for name in "abcd":
        t.add_argument(name, type=int)
    common(t, parabolic=False, prime=False)
    t.set_defaults(func=_cmd_tensor)

    r = sub.add_parser("restrict", help="parabolic string filtration of a costandard module")
    r.add_argument("a", type=int)
    r.add_argument("b", type=int)
    common(r, prime=False)
    r.set_defaults(func=_cmd_restrict)

    rep = sub.add_parser("report", help="aggregated verification reports")
    rep.add_argument("kind", choices=("collection", "frobenius", "karoubi", "chevalley", "rank"))
    rep.add_argument("--box", type=int, default=16)
    common(rep, latex=False)
    rep.set_defaults(func=_cmd_report)

    m = sub.add_parser("modchar", help="simple character attached to a Weyl word")
    m.add_argument("--w", required=True)
    common(m, parabolic=False, latex=False)
    m.set_defaults(func=_cmd_modchar)

    return parser


@lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The parser, built once per process: ``parse_args`` leaves it unchanged."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
        return args.func(args)
    except UsageError as e:
        print(e, file=sys.stderr)
        return EXIT_USAGE
    except (EulerMismatch, InconsistentChoice, ArithmeticError) as e:
        print(f"verification failed: {type(e).__name__}: {e}", file=sys.stderr)
        return EXIT_FAILED
    except (AmbiguousTable, Undecided) as e:
        print(f"ambiguous: {type(e).__name__}: {e}", file=sys.stderr)
        return EXIT_AMBIGUOUS


if __name__ == "__main__":
    raise SystemExit(main())
