"""Catalogue of mutants that the test suite must kill, and a runner for it.

Each mutant names a source file, one or more (old, new) text edits and the test
files that must catch it.  The runner copies ``src``, ``tests`` and
``pyproject.toml`` to a temporary directory, checks that each old text occurs
exactly once in the file, applies the edits and runs ``pytest -x`` on the named
files; a mutant is killed when pytest fails.  The named files must first pass on
the unmutated copy, so a broken test cannot kill a mutant.  Standard library
only, and pytest does not collect this file.

    python tests/mutants.py            # every mutant
    python tests/mutants.py NAME ...   # the named ones

Exit 0 when every mutant is killed; 1 when one survives, an old text does not
occur exactly once, or the unmutated copy fails its tests.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    path: str  # relative to the repository root
    edits: tuple[tuple[str, str], ...]  # (old, new); each old text occurs exactly once
    tests: tuple[str, ...]


CATALOGUE = (
    Mutant("multiplicity dims without the stretch", "src/g2bwb/extcollection.py",
           (("charring.euler_characteristic(dual.character().stretch(p))",
             "charring.euler_characteristic(dual.character())"),),
           ("tests/test_modchar.py",)),
    Mutant("rank verdict accepts no survivor", "src/g2bwb/modchar.py",
           (("return self.surviving_assignments == 1", "return self.surviving_assignments >= 0"),),
           ("tests/test_modchar.py",)),
    Mutant("replay skips the premise order", "src/g2bwb/karoubi.py",
           (("not 0 <= pos[q] < i", "not 0 <= pos[q]"),),
           ("tests/test_karoubi.py",)),
    Mutant("Weyl numerator without its sign", "src/g2bwb/modchar.py",
           (("out.get(mu, 0) + (-1) ** x.length * c", "out.get(mu, 0) + c"),),
           ("tests/test_modchar.py",)),
    Mutant("one sign of the Racah table flipped", "src/g2bwb/charring.py",
           (("-(-1) ** w.length) for w in", "-(-1) ** w.length * (-1 if w == weyl.S1 else 1)) for w in"),),
           ("tests/test_charring.py",)),
    Mutant("no dimension guard and one Racah term dropped", "src/g2bwb/charring.py",
           (("if out.dimension() != weyl_dim(lam):", "if False:"),
            ("for w in weyl.ALL_ELEMENTS[1:])", "for w in weyl.ALL_ELEMENTS[2:])")),
           ("tests/test_modchar.py",)),
    Mutant("no nonnegativity check of a row", "src/g2bwb/modchar.py",
           (("if any(m < 0 for m in dominant_multiplicities(out, lam).values()):", "if False:"),),
           ("tests/test_modchar.py",)),
    Mutant("generator relations without [e_i, f_j]", "src/g2bwb/chevalley.py",
           (("if pair_brackets[(e, f)] != (im[(\"h\", i)] if i == j else zero_mat()):", "if False:"),),
           ("tests/test_chevalley.py",)),
    Mutant("stabilizer inside list without the simple root", "src/g2bwb/chevalley.py",
           (("for alpha in POSITIVE_ROOTS] + [(simple, True)]", "for alpha in POSITIVE_ROOTS]"),),
           ("tests/test_chevalley.py",)),
    Mutant("closed-form check reads the order-2 terms", "src/g2bwb/chevalley.py",
           (("_closed_form(alpha.weight, positive)[1]", "_closed_form(alpha.weight, positive)[2]"),),
           ("tests/test_chevalley.py",)),
    Mutant("sparse matrices keep their zero entries", "src/g2bwb/chevalley.py",
           (("return {k: v for k, v in m.items() if v}", "return {k: v for k, v in m.items()}"),),
           ("tests/test_chevalley_matrix_layer.py",)),
    Mutant("closure learns a rule's last slot", "src/g2bwb/karoubi.py",
           (("for new in slots[first[r]:first[r + 1] - 1]:", "for new in slots[first[r]:first[r + 1]]:"),),
           ("tests/test_karoubi.py",)),
)


def _pytest(tree: Path, tests: tuple[str, ...]) -> bool:
    """True when pytest passes the test files in the tree."""
    argv = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests]
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    return subprocess.run(argv, cwd=tree, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL).returncode == 0


def _copy(dest: Path) -> Path:
    skip = shutil.ignore_patterns("__pycache__", ".pytest_cache", ".hypothesis")
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, dest / name, ignore=skip)
    shutil.copy(ROOT / "pyproject.toml", dest)
    return dest


def run(mutants: tuple[Mutant, ...]) -> int:
    bad = 0
    with tempfile.TemporaryDirectory() as tmp:
        clean = _copy(Path(tmp) / "clean")
        tests = tuple(sorted({t for m in mutants for t in m.tests}))
        if not _pytest(clean, tests):
            print(f"the unmutated tree fails {' '.join(tests)}")
            return 1
        for i, m in enumerate(mutants):
            text = (ROOT / m.path).read_text()
            counts = [text.count(old) for old, _ in m.edits]
            if counts != [1] * len(m.edits):
                print(f"BROKEN    {m.name}: old texts occur {counts} times in {m.path}")
                bad += 1
                continue
            for old, new in m.edits:
                text = text.replace(old, new)
            tree = _copy(Path(tmp) / f"m{i}")
            (tree / m.path).write_text(text)
            start = time.perf_counter()
            killed = not _pytest(tree, m.tests)
            print(f"{'killed  ' if killed else 'SURVIVED'}  {m.name} "
                  f"({time.perf_counter() - start:.1f} s)")
            bad += not killed
            shutil.rmtree(tree)
    print(f"{len(mutants) - bad} of {len(mutants)} mutants killed")
    return 1 if bad else 0


if __name__ == "__main__":
    names = set(sys.argv[1:])
    unknown = names - {m.name for m in CATALOGUE}
    if unknown:
        sys.exit(f"unknown mutants: {sorted(unknown)}")
    sys.exit(run(tuple(m for m in CATALOGUE if not names or m.name in names)))
