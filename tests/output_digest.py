"""Committed digest of the CLI's output: one sha256 per command of a fixed sweep.

The sweep runs ``g2bwb.cli.main`` in one process on every subcommand and
format, both parabolics, reports at p = 7 ... 997, the rank report up to
p = 101, the Karoubi report up to box 32, ``modchar`` on every Weyl word, and
the refusals.  Each command's hash covers its exit code, stdout and stderr.
Standard library only, and pytest does not collect this file.

    python tests/output_digest.py           # compare with tests/output_digest.json
    python tests/output_digest.py --write   # regenerate tests/output_digest.json

Exit 0 when every hash matches; 1 when a hash changed or a command was added
or removed, each of them named.  A change that alters output on purpose
regenerates the file and says in CHANGES.md which commands changed and why.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DIGEST = Path(__file__).resolve().with_suffix(".json")

PARABOLICS = ("short", "long")
OBJECTS = {
    "short": ("M", "E(e)", "E(s2)", "E(s1s2)", "E(s2s1s2)", "E(s1s2s1s2)", "E(s2s1s2s1s2)"),
    "long": ("E(e)", "E(s1)", "E(s2s1)", "E(s1s2s1)", "E(s2s1s2s1)", "E(s1s2s1s2s1)"),
}
WORDS = ("e", "s1", "s2", "s1s2", "s2s1", "s1s2s1", "s2s1s2", "s1s2s1s2", "s2s1s2s1",
         "s1s2s1s2s1", "s2s1s2s1s2", "s1s2s1s2s1s2")
LOGGED = "G2BWB_LOG=1"  # a first word that sets the audit log for that command


def commands() -> list[list[str]]:
    """The sweep, in the order it runs."""
    out = []
    for a, b in ((0, 0), (3, -2), (1, 1), (1, -1), (-4, -4), (2, -7), (-9, 5)):
        for fmt in ("text", "json"):
            out.append(["bott", str(a), str(b), "--format", fmt])
    out += [["bott", "-5", "2", "--p", p] for p in ("7", "13", "997")]
    for par in PARABOLICS:
        objs = OBJECTS[par]
        out += [["ext", x, y, "--parabolic", par, "--format", "json"] for x in objs for y in objs]
        for p in ("7", "997"):
            for fmt in ("text", "latex"):
                out.append(["ext", objs[0], objs[-1], "--parabolic", par, "--p", p, "--format", fmt])
    for lam in (("1", "0", "0", "1"), ("2", "1", "1", "2"), ("5", "5", "5", "5")):
        out += [["tensor", *lam, "--format", fmt] for fmt in ("text", "json", "latex")]
    for par in PARABOLICS:
        for lam in (("0", "0"), ("1", "0"), ("0", "1"), ("3", "2"), ("5", "5")):
            out += [["restrict", *lam, "--parabolic", par, "--format", fmt]
                    for fmt in ("text", "json", "latex")]
    for kind in ("collection", "frobenius"):
        for par in PARABOLICS:
            for p in ("7", "11", "13", "101", "997"):
                out += [["report", kind, "--parabolic", par, "--p", p, "--format", fmt]
                        for fmt in ("text", "json")]
    for par, smallest in (("short", 10), ("long", 12)):
        for box in (smallest, 16, 24, 32):
            out.append(["report", "karoubi", "--parabolic", par, "--box", str(box),
                        "--format", "json"])
        out.append(["report", "karoubi", "--parabolic", par])
        out.append(["report", "karoubi", "--parabolic", par, "--box", str(smallest - 1)])
        out.append([LOGGED, "report", "karoubi", "--parabolic", par, "--box", "12"])
    for par in PARABOLICS:
        out += [["report", "rank", "--parabolic", par, "--p", p, "--format", "json"]
                for p in ("7", "11", "13", "23", "43", "101")]
        out.append(["report", "rank", "--parabolic", par])
    out += [["report", "chevalley", "--format", fmt] for fmt in ("text", "json")]
    out += [["modchar", "--w", w, "--p", "7", "--format", "json"] for w in WORDS]
    out += [["modchar", "--w", w, "--p", "101"] for w in ("s1s2", "s2s1s2s1s2")]
    out.append([LOGGED, "modchar", "--w", "s2s1s2", "--p", "11"])
    refusals = (
        ["bott", "x", "2"],
        ["ext", "M", "E(e)", "--parabolic", "long"],
        ["ext", "E(e)", "nope"],
        ["tensor", "1", "0", "0", "-1"],
        ["tensor", "6", "0", "0", "1"],
        ["restrict", "8", "8"],
        ["report", "frobenius", "--p", "4"],
        ["report", "collection", "--p", "5"],
        ["report", "frobenius", "--p", "318665857834031151167461"],
        ["report", "chevalley", "--format", "xml"],
        ["report", "karoubi", "--box", "33"],
        ["report", "rank", "--p", "103"],
        ["report", "rank", "--p", "997"],
        ["modchar", "--w", "s1s2", "--p", "997"],
        ["modchar", "--w", "foo"],
        ["modchar", "--w", "s1s1"],
        ["modchar", "--w", "s1s2s1s2s1s2", "--p", "7"],
        ["nope"],
    )
    return out + [list(argv) for argv in refusals]


def digest(argv: list[str]) -> str:
    """sha256 of one command's exit code, stdout and stderr."""
    from g2bwb import cli

    logged = argv[0] == LOGGED
    if logged:
        argv = argv[1:]
        os.environ["G2BWB_LOG"] = "1"
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    finally:
        if logged:
            del os.environ["G2BWB_LOG"]
    record = json.dumps([code, out.getvalue(), err.getvalue()])
    return hashlib.sha256(record.encode()).hexdigest()


def main(args: list[str]) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    os.environ.pop("G2BWB_LOG", None)
    got = {" ".join(argv): digest(argv) for argv in commands()}
    if args == ["--write"]:
        DIGEST.write_text(json.dumps(got, indent=0) + "\n")
        print(f"wrote {len(got)} hashes to {DIGEST.name}")
        return 0
    if args:
        sys.exit(f"usage: {sys.argv[0]} [--write]")
    want = json.loads(DIGEST.read_text())
    changed = [c for c in got if c in want and got[c] != want[c]]
    added = [c for c in got if c not in want]
    removed = [c for c in want if c not in got]
    for label, names in (("changed", changed), ("new", added), ("gone", removed)):
        for name in names:
            print(f"{label}: {name}")
    print(f"{len(got)} commands, {len(changed)} changed, {len(added)} new, {len(removed)} gone")
    return 1 if changed or added or removed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
