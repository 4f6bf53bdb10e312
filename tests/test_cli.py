import hashlib
import json

import pytest

from g2bwb import cli, weyl
from g2bwb.chevalley import ChevalleyReport
from g2bwb.cli import EXIT_AMBIGUOUS, EXIT_FAILED, EXIT_OK, EXIT_USAGE, main
from g2bwb.cohomology import EulerMismatch
from g2bwb.extcollection import AmbiguousTable, ExtEngine
from g2bwb.modchar import InconsistentChoice, Undecided
from g2bwb.karoubi import verify_generation
from g2bwb.rootdata import W1, ZERO, ParabolicId


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_bott_text(capsys):
    code, out = run(capsys, "bott", "3", "-2")
    assert code == EXIT_OK
    assert out.strip() == "H^1 = nabla(0,0)"
    code, out = run(capsys, "bott", "1", "1")
    assert out.strip() == "H^0 = nabla(1,1)"
    code, out = run(capsys, "bott", "1", "-1")
    assert out.strip() == "VANISHES"


def test_bott_json_roundtrip(capsys):
    code, out = run(capsys, "bott", "3", "-2", "--format", "json")
    data = json.loads(out)
    assert data == json.loads(json.dumps(data))
    assert data["degree"] == 1 and data["weight"] == [0, 0]


def _refused(capsys, argv) -> str:
    """The one stderr line of main, after checking that it returns 2 and prints nothing."""
    code = main(argv)
    captured = capsys.readouterr()
    assert code == EXIT_USAGE and captured.out == "", argv
    assert len(captured.err.splitlines()) == 1, captured.err
    return captured.err


def test_bott_usage_error(capsys):
    _refused(capsys, ["bott", "x", "2"])


def test_help_still_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["report", "--help"])
    assert exc.value.code == EXIT_OK
    captured = capsys.readouterr()
    assert captured.out.startswith("usage: g2bwb report") and captured.err == ""


def test_ext_command(capsys):
    code, out = run(capsys, "ext", "--parabolic", "short", "M", "E(s2s1s2)", "--p", "11")
    assert code == EXIT_OK
    assert "Ext^1: L(0,0)" in out

    code, out = run(capsys, "ext", "--parabolic", "short", "E(e)", "E(s2)")
    assert code == EXIT_OK
    assert out.strip().endswith("0")

    code, out = run(capsys, "ext", "--parabolic", "long", "E(s1s2s1)", "E(s1s2s1)")
    assert code == EXIT_OK
    assert "Ext^0: L(0,0)" in out


def test_ext_latex(capsys):
    code, out = run(capsys, "ext", "M", "E(s2s1s2)", "--format", "latex")
    assert code == EXIT_OK
    assert out == "\\mathrm{Ext}^{1} \\simeq L(0,0)\n"


def test_ext_unknown_name(capsys):
    # the message itself, without the quotes of KeyError's repr
    for argv, err in ((["--parabolic", "short", "E(s1)", "E(e)"],
                       "unknown object: E(s1) is not an object of this collection\n"),
                      (["--parabolic", "long", "M", "E(e)"],
                       "unknown object: M exists only for the short-root parabolic\n")):
        code = main(["ext", *argv])
        assert code == EXIT_USAGE and capsys.readouterr().err == err


def test_ext_json(capsys):
    code, out = run(capsys, "ext", "M", "M", "--format", "json")
    data = json.loads(out)
    assert data["exact"] is True
    assert data["degrees"]["0"] == [["L", 0, 0]]
    assert data["degrees"]["1"] == [["L", 1, 0]]


def test_tensor_command(capsys):
    code, out = run(capsys, "tensor", "1", "0", "0", "1")
    assert code == EXIT_OK
    assert out.strip() == "nabla(1,1) + nabla(2,0) + nabla(1,0)"
    code, out = run(capsys, "tensor", "1", "0", "0", "1", "--format", "latex")
    assert "\\nabla(1,1)" in out
    # factors print in peeling order: repeated support_max of what is left
    code, out = run(capsys, "tensor", "1", "1", "1", "1")
    assert out.strip() == (
        "nabla(2,2) + nabla(5,0) + nabla(0,3) + 2*nabla(3,1) + nabla(1,2) + 2*nabla(4,0)"
        " + 3*nabla(2,1) + 2*nabla(0,2) + 3*nabla(3,0) + 2*nabla(1,1) + 2*nabla(2,0)"
        " + 2*nabla(0,1) + nabla(1,0) + nabla(0,0)")


def test_restrict_command(capsys):
    code, out = run(capsys, "restrict", "1", "0", "--parabolic", "short")
    assert code == EXIT_OK
    assert out.strip() == "nablaP(1,0) / nablaP(2,-1) / nablaP(1,-1)"
    code, out = run(capsys, "restrict", "0", "1", "--parabolic", "short", "--format", "latex")
    assert "\\begin{tabular}{|c|}" in out


def test_report_chevalley(capsys):
    code, out = run(capsys, "report", "chevalley")
    assert code == EXIT_OK
    assert out.splitlines()[-1] == "PASS"


def test_report_collection_json(capsys):
    code, out = run(capsys, "report", "collection", "--parabolic", "long", "--format", "json")
    assert code == EXIT_OK
    data = json.loads(out)
    assert data["passed"] is True
    assert data["verdicts"]["hom_matches_bruhat"] is True


def test_report_frobenius(capsys):
    code, out = run(capsys, "report", "frobenius", "--parabolic", "short")
    assert code == EXIT_OK
    assert "NONZERO" in out and "witness" in out


def test_report_karoubi_small_box(capsys):
    code, out = run(capsys, "report", "karoubi", "--parabolic", "long", "--box", "14")
    assert code == EXIT_OK
    assert "PASS" in out


def test_modchar_command(capsys):
    code, out = run(capsys, "modchar", "--p", "11", "--w", "s1s2")
    assert code == EXIT_OK
    assert "dim 4284" in out
    code, out = run(capsys, "modchar", "--p", "11", "--w", "e")
    assert "dim 1" in out


@pytest.mark.parametrize("argv", [
    ["bott", "0", "0"],
    ["report", "chevalley"],
    ["modchar", "--w", "e"],
], ids=["bott", "report-chevalley", "modchar"])
def test_latex_unavailable_is_usage_error(capsys, argv):
    # refused by the parser, before any of the work runs
    _refused(capsys, [*argv, "--format", "latex"])


def test_all_report_jsons_roundtrip(capsys):
    for argv in (["report", "collection", "--parabolic", "short", "--format", "json"],
                 ["report", "frobenius", "--parabolic", "long", "--format", "json"],
                 ["report", "chevalley", "--format", "json"],
                 ["report", "karoubi", "--parabolic", "long", "--format", "json"]):
        code, out = run(capsys, *argv)
        data = json.loads(out)
        assert json.loads(json.dumps(data)) == data


@pytest.mark.parametrize("argv", [
    ["ext", "E(e)", "E(e)", "--p", "0"],
    ["report", "rank", "--p", "-3"],
    ["report", "rank", "--p", "4"],
    # primes below cli.MIN_P
    ["report", "frobenius", "--p", "5"],
    ["report", "collection", "--p", "3"],
    ["report", "rank", "--p", "5"],
    ["modchar", "--p", "2", "--w", "e"],
    ["bott", "3", "-2", "--p", "5"],
    ["bott", "3", "-2", "--p", "x"],
])
def test_non_prime_p_is_usage_error(capsys, argv):
    _refused(capsys, argv)


def test_karoubi_box_below_targets_is_usage_error(capsys):
    for argv in (["--box", "-1"], ["--box", "9"], ["--parabolic", "long", "--box", "11"]):
        code, out = run(capsys, "report", "karoubi", *argv)
        assert code == EXIT_USAGE and out == ""
    for argv in (["--box", "10"], ["--parabolic", "long", "--box", "12"]):
        code, out = run(capsys, "report", "karoubi", *argv)
        assert code == EXIT_OK


def test_karoubi_box_above_limit_is_usage_error(capsys):
    # refused before any rule is compiled, so nothing large stays cached
    for argv in (["--box", "33"], ["--parabolic", "long", "--box", "200"]):
        code = main(["report", "karoubi", *argv])
        captured = capsys.readouterr()
        assert code == EXIT_USAGE and captured.out == ""
        assert "at most 32" in captured.err


@pytest.mark.parametrize("argv, message", [
    (["tensor", "-1", "0", "0", "1"], "dominant"),
    (["tensor", "1", "0", "0", "6"], "at most 5"),
    (["restrict", "0", "6"], "at most 5"),
    (["ext", "E(s3)", "M"], "unknown object"),
    # words that only reduce to collection elements name no object
    (["ext", "E(s1s1)", "M"], "unknown object"),
    (["ext", "E(s1s1)", "E(s2s2s2)"], "unknown object"),
    (["ext", "E(e)", "E(s2s1s1s1)", "--parabolic", "long"], "unknown object"),
    (["report", "rank", "--p", "997"], f"at most {cli.RANK_MAX_P}"),
    (["report", "rank", "--p", "103", "--parabolic", "long"], f"at most {cli.RANK_MAX_P}"),
    (["modchar", "--w", "s1s2", "--p", "997"], f"at most {cli.RANK_MAX_P}"),
    (["modchar", "--w", "s3"], "bad word"),
    (["modchar", "--w", "foo"], "bad word foo"),
    (["modchar", "--w", "s12"], "bad word s12"),
    # like ext, modchar names an element by a reduced word only
    (["modchar", "--w", "s1s1"], "s1s1 is not a reduced word"),
    (["modchar", "--w", "s2s1s2s1s2s1s2", "--p", "7"], "not a reduced word"),
], ids=["tensor-not-dominant", "tensor-above-bound", "restrict-above-bound", "ext-bad-word",
        "ext-non-reduced", "ext-both-non-reduced", "ext-non-reduced-long", "rank-p-above-bound",
        "rank-long-p-above-bound", "modchar-p-above-bound", "modchar-bad-word",
        "modchar-no-letters", "modchar-joined-digits", "modchar-non-reduced",
        "modchar-non-reduced-long"])
def test_bad_weight_or_name_is_one_line_usage_error(capsys, argv, message):
    # refused before any character is computed
    code = main(argv)
    captured = capsys.readouterr()
    assert code == EXIT_USAGE and captured.out == ""
    err = captured.err.splitlines()
    assert len(err) == 1 and message in err[0]


def test_modchar_accepts_every_reduced_word(capsys):
    # the canonical word of each element, and a reduced word that is not one;
    # the one element outside the coset representatives is undecided (exit 3)
    words = [str(w) for w in weyl.ALL_ELEMENTS] + ["s2s1s2s1s2s1"]
    assert words.count("s2s1s2s1s2s1") == 1
    reps = {str(w) for par in ParabolicId for w in weyl.minimal_reps(par)}
    for w in words:
        code = main(["modchar", "--w", w, "--p", "7"])
        assert code == (EXIT_OK if w in reps else EXIT_AMBIGUOUS), w
    capsys.readouterr()


@pytest.mark.parametrize("p", ["7", "11"])
@pytest.mark.parametrize("word", ["s1s2s1s2s1s2", "s2s1s2s1s2s1"])
def test_modchar_longest_element_is_undecided(capsys, word, p):
    # the rank identity never reads the row of the longest element, the one
    # element outside both sets of coset representatives, so it stays open
    code = main(["modchar", "--w", word, "--p", p])
    captured = capsys.readouterr()
    assert code == EXIT_AMBIGUOUS and captured.out == ""
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("ambiguous: Undecided: "), err


def _raiser(exc):
    def raise_it(*args, **kwargs):
        raise exc
    return raise_it


@pytest.mark.parametrize("target, argv, exc, expected", [
    ("full_collection_report", ["report", "collection"],
     EulerMismatch("two exact routes disagree"), EXIT_FAILED),
    ("rank_identity_check", ["report", "rank", "--p", "7"],
     InconsistentChoice("negative character at (0,0)"), EXIT_FAILED),
    ("frobenius_report", ["report", "frobenius"],
     AmbiguousTable("a required splitting vanishing is not certified"), EXIT_AMBIGUOUS),
    ("ext_table", ["ext", "E(e)", "E(e)"], Undecided(ZERO, 11, {}), EXIT_AMBIGUOUS),
    ("chevalley_verify", ["report", "chevalley"],
     ArithmeticError("coroot is not diagonal"), EXIT_FAILED),
    ("resolved_oracle", ["modchar", "--w", "s1s2", "--p", "7"],
     Undecided(ZERO, 7, {}), EXIT_AMBIGUOUS),
], ids=["EulerMismatch", "InconsistentChoice", "AmbiguousTable", "Undecided", "ArithmeticError",
        "modchar"])
def test_library_exception_exit_code(capsys, monkeypatch, target, argv, exc, expected):
    monkeypatch.setattr(cli, target, _raiser(exc))
    code = main(argv)
    captured = capsys.readouterr()
    assert code == expected
    assert captured.out == ""
    err = captured.err.splitlines()
    assert len(err) == 1 and type(exc).__name__ in err[0]
    assert "Traceback" not in captured.err


def _mutate_cell(monkeypatch, pair, **changes):
    """Serve one named cell changed by ``_replace``; the memo keeps the true table."""
    cell = ExtEngine.cell

    def patched(self, X, Y):
        t = cell(self, X, Y)
        return t._replace(**changes) if (X.name, Y.name) == pair else t

    monkeypatch.setattr(ExtEngine, "cell", patched)


@pytest.mark.parametrize("parabolic, pair, changes, failure", [
    ("short", ("M", "E(e)"), {"exact": False}, "ambiguous table for ('M', 'E(e)')"),
    ("long", ("E(e)", "E(s1)"), {"degrees": ((0, (ZERO,)), (1, (ZERO,)))},
     "higher Ext nonzero for (E(e),E(s1))"),
    ("long", ("E(e)", "E(s1)"), {"degrees": ((0, (ZERO,)),)},
     "Hom(E(e),E(s1)) nonzero=True, Bruhat wants False"),
    ("short", ("E(s2)", "E(s2)"), {"degrees": ((0, (W1,)),)},
     "diagonal cell of E(s2) is not trivial"),
], ids=["ambiguous", "higher-ext", "bruhat", "diagonal"])
def test_collection_failure_verdicts(capsys, monkeypatch, parabolic, pair, changes, failure):
    _mutate_cell(monkeypatch, pair, **changes)
    argv = ["report", "collection", "--parabolic", parabolic]
    code, out = run(capsys, *argv)
    assert code == EXIT_FAILED
    assert f"FAILURE: {failure}" in out.splitlines() and out.splitlines()[-1] == "FAIL"
    code, out = run(capsys, *argv, "--format", "json")
    rep = json.loads(out)
    assert code == EXIT_FAILED and rep["passed"] is False and failure in rep["failures"]


@pytest.mark.parametrize("parabolic, pair, changes", [
    ("short", ("M", "E(e)"), {"exact": False}),
    ("short", ("M", "E(s2s1s2)"), {"exact": False}),
], ids=["inexact", "inexact-witness"])
def test_frobenius_uncertified_splitting_is_ambiguous(capsys, monkeypatch, parabolic, pair,
                                                      changes):
    _mutate_cell(monkeypatch, pair, **changes)
    code = main(["report", "frobenius", "--parabolic", parabolic])
    captured = capsys.readouterr()
    assert code == EXIT_AMBIGUOUS and captured.out == ""
    err = captured.err.splitlines()
    assert len(err) == 1 and "AmbiguousTable" in err[0]


@pytest.mark.parametrize("parabolic, pair", [
    ("short", ("E(s2s1s2)", "M")),
    ("long", ("E(e)", "E(s1)")),
], ids=["short-ext1", "long-ext1"])
def test_frobenius_nonzero_splitting_ext1_fails(capsys, monkeypatch, parabolic, pair):
    # a certified nonzero Ext^1 is a failed check: the report prints and exits 4
    _mutate_cell(monkeypatch, pair, degrees=((1, (ZERO,)),))
    argv = ["report", "frobenius", "--parabolic", parabolic]
    code, out = run(capsys, *argv)
    lines = out.splitlines()
    assert code == EXIT_FAILED and lines[-1] == "FAIL"
    assert f"  Ext^1({pair[0]},{pair[1]}) = 0: False" in lines
    code, out = run(capsys, *argv, "--format", "json")
    rep = json.loads(out)
    assert code == EXIT_FAILED and rep["passed"] is False
    assert {"source": pair[0], "target": pair[1], "vanishes": False} in rep["splitting_checks"]


_REPORT_KINDS = [(kind, par) for kind in ("collection", "frobenius", "karoubi", "rank")
                 for par in ("short", "long")] + [("chevalley", "short")]


@pytest.mark.parametrize("kind, parabolic", _REPORT_KINDS)
def test_report_exit_code_is_its_verdict(capsys, kind, parabolic):
    code, out = run(capsys, "report", kind, "--parabolic", parabolic, "--format", "json")
    assert json.loads(out)["passed"] is True and code == EXIT_OK


def _fail_first_check(rep):
    (a, b, _), *rest = rep.splitting_checks
    return rep._replace(splitting_checks=((a, b, False), *rest))


def _fail_first_chevalley_check(reps):
    (label, _), *rest = reps[0].checks
    return ChevalleyReport((reps[0]._replace(checks=((label, False), *rest)), *reps[1:]))


# each report function that cli imports, and a change of its result that fails the verdict
_FORCED_FAILURES = {
    "collection": ("full_collection_report",
                   lambda rep: rep._replace(failures=("forced",))),
    "frobenius": ("frobenius_report", _fail_first_check),
    "karoubi": ("verify_generation",
                lambda out: (out[0]._replace(replay_ok=False), out[1])),
    "rank": ("rank_identity_check",
             lambda rep: rep._replace(surviving_assignments=0)),
    "chevalley": ("chevalley_verify", _fail_first_chevalley_check),
}


@pytest.mark.parametrize("kind, parabolic", _REPORT_KINDS)
def test_forced_failing_report_exits_4(capsys, monkeypatch, kind, parabolic):
    target, fail = _FORCED_FAILURES[kind]
    report = getattr(cli, target)
    monkeypatch.setattr(cli, target, lambda *args, **kwargs: fail(report(*args, **kwargs)))
    code, out = run(capsys, "report", kind, "--parabolic", parabolic, "--format", "json")
    assert json.loads(out)["passed"] is False and code == EXIT_FAILED
    code, out = run(capsys, "report", kind, "--parabolic", parabolic)
    assert code == EXIT_FAILED and out.splitlines()[-1] == "FAIL"


def test_rank_bound_refuses_only_rank_and_modchar(capsys, monkeypatch):
    # at the bound, and on the other reports far above it, the library is reached
    assert cli.RANK_MAX_P >= 101
    p = str(cli.RANK_MAX_P)
    for target, argv in (("rank_identity_check", ["report", "rank", "--p", p]),
                         ("resolved_oracle", ["modchar", "--w", "e", "--p", p]),
                         ("full_collection_report", ["report", "collection", "--p", "997"]),
                         ("frobenius_report", ["report", "frobenius", "--p", "997"])):
        monkeypatch.setattr(cli, target, _raiser(InconsistentChoice("reached")))
        assert main(argv) == EXIT_FAILED, argv
        assert "reached" in capsys.readouterr().err


RANK_P7_JSON = (
    '{"character_match": true, "choice_points": ["[nabla(3,3):L(2,2)] = 1", '
    '"[nabla(3,5):L(1,2)] = 1", "[nabla(3,5):L(2,0)] = 1", "[nabla(4,3):L(1,2)] = 1", '
    '"[nabla(4,3):L(5,1)] = 1", "[nabla(4,4):L(1,1)] = 1", "[nabla(4,4):L(2,2)] = 1"], '
    '"decided_by": "identity_resolution", "dims": {"e": 1, "s1s2": 481, "s1s2s1s2": 38, '
    '"s2": 6578, "s2s1s2": 3419, "s2s1s2s1s2": 267}, "dims_match": true, "expected": 16807, '
    '"p": 7, "parabolic": "short", "passed": true, "surviving_assignments": 1, '
    '"weighted_sum": 16807, "zero_weight_match": true}\n'
)


def test_report_rank_p7_golden(capsys):
    code, out = run(capsys, "report", "rank", "--p", "7", "--format", "json")
    assert code == EXIT_OK
    assert out == RANK_P7_JSON


@pytest.mark.parametrize("parabolic", ["short", "long"])
def test_report_rank_p7_text(capsys, parabolic):
    code, out = run(capsys, "report", "rank", "--p", "7", "--parabolic", parabolic)
    assert code == EXIT_OK
    lines = out.splitlines()
    assert lines[0] == f"rank identity at p=7 ({parabolic} root):"
    assert "  weighted dimension sum = 16807 (expected 16807)" in lines
    assert "  decided by: identity_resolution" in lines
    assert lines[-1] == "PASS"


def test_modchar_log_lists_the_resolved_points(capsys, monkeypatch):
    # at p = 7 the rank identity decides the open multiplicities
    monkeypatch.setenv("G2BWB_LOG", "1")
    code = main(["modchar", "--w", "s1s2", "--p", "7"])
    captured = capsys.readouterr()
    assert code == EXIT_OK and "[identity_resolution]" in captured.out
    points = json.loads(RANK_P7_JSON)["choice_points"]
    assert captured.err.splitlines() == [f"resolved: {pt}" for pt in points]


def test_report_karoubi_log_is_the_audit_log(capsys, monkeypatch):
    monkeypatch.setenv("G2BWB_LOG", "1")
    code = main(["report", "karoubi", "--parabolic", "long", "--box", "12"])
    captured = capsys.readouterr()
    assert code == EXIT_OK and captured.out.endswith("PASS\n")
    _, kb = verify_generation(ParabolicId.LONG, amax=12, bmax=12)
    assert captured.err == kb.audit_log() + "\n"
    assert "L(-12,0) <- " in captured.err


CHEVALLEY_JSON_SHA256 = "073567118ebe3d22ad7386d0019e7037926914c5f3d3347308966a522eae339c"


def test_report_chevalley_json_golden(capsys):
    # pins every check label and verdict of the SO7 report
    code, out = run(capsys, "report", "chevalley", "--format", "json")
    assert code == EXIT_OK
    assert hashlib.sha256(out.encode()).hexdigest() == CHEVALLEY_JSON_SHA256


CHEVALLEY_TEXT_SHA256 = "cb33511c6ab639f2d5ebddc51531c7bdeda4815bf27a46b00b01d8060a745a10"


def test_report_chevalley_text_golden(capsys):
    # pins the text layout of CheckReport.to_text as well
    code, out = run(capsys, "report", "chevalley")
    assert code == EXIT_OK
    assert hashlib.sha256(out.encode()).hexdigest() == CHEVALLEY_TEXT_SHA256


# stdout of the collection and Frobenius reports in JSON, pinned by sha256
@pytest.mark.parametrize("kind, p, parabolic, digest", [
    ("collection", 7, "short", "b974c6aac54b5f16c0306ba582b5d390f744092d810076b0635ecf0d1a2f184c"),
    ("collection", 7, "long", "19fd6d5e6424254928704210bb23a563244db60c9ae4ab010a05a2b7eca6fb92"),
    ("collection", 11, "short", "1f619674ea8e0325d931106235ad7cbc3a77df96413313c0c8a7d03f60fb02ab"),
    ("collection", 11, "long", "f1b69621dfd55b6bce87e54ed56a4faba8bef05a558e7a8fc65b9caed7b16cc6"),
    ("frobenius", 7, "short", "3b58b472c204b2c28dfe59d667e2cc96a0d26cfa1349cf54a24c3700cbda9c4f"),
    ("frobenius", 7, "long", "e884bbb6368f057862a266daca50a81861d5a868dd3ee28dd60d78d2d199a7ef"),
    ("frobenius", 11, "short", "b075456921700df01a17c119ae0a98236446619db50023b7df1cea99178876d2"),
    ("frobenius", 11, "long", "3d66478afb7ea9a5766517e0dd8919bb514a139d976dcd13697d988828d2213f"),
])
def test_report_ext_json_golden(capsys, kind, p, parabolic, digest):
    code, out = run(capsys, "report", kind, "--p", str(p), "--parabolic", parabolic,
                    "--format", "json")
    assert code == EXIT_OK
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_prime_check_agrees_with_trial_division():
    from g2bwb.cli import _is_prime

    for n in range(-5, 5000):
        assert _is_prime(n) == (n > 1 and all(n % d for d in range(2, int(n ** 0.5) + 1))), n
    assert not _is_prime(3215031751)  # strong pseudoprime to the bases 2, 3, 5 and 7
    assert _is_prime(2 ** 89 - 1)


@pytest.mark.parametrize("argv", [
    # 399165290221 * 798330580441, the least strong pseudoprime to the bases 2 ... 37
    ["report", "frobenius", "--p", "318665857834031151167461", "--format", "json"],
    ["report", "collection", "--p", "3317044064679887385961981"],  # 1287836182261 * 2575672364521
])
def test_p_at_or_above_prime_limit_is_usage_error(capsys, argv):
    assert "must be below" in _refused(capsys, argv)


@pytest.mark.parametrize("parabolic, digest", [
    ("short", "ebee80866f1f686d0d30397d857c619163bb812533ffedf70bc9bcef5e4a8cc9"),
    ("long", "43d21bb84ccdd0e3fef6505f787d78889ab32a314602c1d28265ae0fd1e42d65"),
])
def test_report_karoubi_box24_json_golden(capsys, parabolic, digest):
    code, out = run(capsys, "report", "karoubi", "--box", "24", "--parabolic", parabolic,
                    "--format", "json")
    assert code == EXIT_OK
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_import_loads_neither_dataclasses_nor_inspect():
    # each cold command pays for what importing the CLI loads
    import subprocess
    import sys
    from pathlib import Path

    import g2bwb

    code = ("import sys, g2bwb.cli; "
            "print(' '.join(m for m in ('dataclasses', 'inspect') if m in sys.modules))")
    env = {"PYTHONPATH": str(Path(g2bwb.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-S", "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out == "\n"


def test_one_parser_serves_every_call_in_a_process(capsys):
    # main builds its parser once; a usage error in between leaves it as it was
    import os
    import subprocess
    import sys
    from pathlib import Path

    import g2bwb

    runs = [["report", "collection", "--p", "13", "--format", "json"],
            ["report", "rank", "--p", "4"],
            ["ext", "M", "E(s2s1s2)", "--p", "7"],
            ["bott", "x", "2"],
            ["report", "frobenius", "--parabolic", "long", "--p", "11"],
            ["bott", "3", "-2", "--format", "json"]]
    env = dict(os.environ, PYTHONPATH=str(Path(g2bwb.__file__).parents[1]))
    assert cli._parser() is cli._parser()
    codes = []
    for argv in runs:
        code = main(argv)
        out = capsys.readouterr().out
        alone = subprocess.run([sys.executable, "-m", "g2bwb", *argv], env=env,
                               capture_output=True, text=True)
        assert (code, out) == (alone.returncode, alone.stdout), argv
        codes.append(code)
    assert codes == [EXIT_OK, EXIT_USAGE, EXIT_OK, EXIT_USAGE, EXIT_OK, EXIT_OK]


@pytest.mark.parametrize("fmt, other", [("json", "to_text"), ("text", "to_json")])
def test_report_renders_only_the_requested_format(capsys, monkeypatch, fmt, other):
    from g2bwb import extcollection

    def refuse(self):
        raise AssertionError(f"{other} rendered for --format {fmt}")

    for report in (extcollection.CollectionReport, extcollection.FrobeniusReport):
        monkeypatch.setattr(report, other, refuse)
    for kind in ("collection", "frobenius"):
        code, out = run(capsys, "report", kind, "--p", "13", "--format", fmt)
        assert code == EXIT_OK and out
