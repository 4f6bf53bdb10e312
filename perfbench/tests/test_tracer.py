"""Span analysis and the wrappers of the traced run."""

import json

from tracer import Tracer, self_times, summarize
import metrics


def test_self_time_of_nested_and_recursive_spans():
    # simple(0..10) -> simple(1..6) -> support_max(2..3), support_max(4..5);
    # simple(0..10) -> support_max(7..9)
    names = ["modchar.simple", "charring.support_max"]
    spans = [
        (0, 0.0, 10.0, -1),
        (0, 1.0, 6.0, 0),
        (1, 2.0, 3.0, 1),
        (1, 4.0, 5.0, 1),
        (1, 7.0, 9.0, 0),
    ]
    assert self_times(spans) == [3.0, 3.0, 1.0, 1.0, 2.0]
    s = summarize(names, spans)
    assert s["modchar.simple"] == {"calls": 2, "self_s": 6.0, "s": 10.0}
    assert s["charring.support_max"] == {"calls": 3, "self_s": 4.0, "s": 4.0}


def test_recursion_through_another_layer_is_counted_once():
    # cell(0..10) -> clebsch_gordan_P(1..9) -> cell(2..8) -> cell(3..4)
    names = ["extcollection.cell", "charring.clebsch_gordan_P"]
    spans = [(0, 0.0, 10.0, -1), (1, 1.0, 9.0, 0), (0, 2.0, 8.0, 1), (0, 3.0, 4.0, 2)]
    s = summarize(names, spans)
    assert s["extcollection.cell"] == {"calls": 3, "self_s": 2.0 + 5.0 + 1.0, "s": 10.0}
    assert s["charring.clebsch_gordan_P"] == {"calls": 1, "self_s": 2.0, "s": 8.0}
    assert sum(self_times(spans)) == 10.0


def _sample_results():
    from g2bwb import charring, cohomology, extcollection, karoubi
    from g2bwb.rootdata import ParabolicId, Weight

    x = charring.weyl_character(Weight(1, 0))
    y = charring.weyl_character(Weight(0, 1))
    par = ParabolicId.SHORT
    objs = list(extcollection.builtin_collection(par)[0].values())
    engine = extcollection.ExtEngine(par, 11)
    return {
        "tensor": x.tensor(y),
        "support_max": x.tensor(y).support_max(),
        "decompose": charring.decompose_costandard(x.tensor(y)),
        "restrict": charring.restrict_to_P(Weight(1, 1), par),
        "bott": cohomology.bott_line(Weight(3, -2), 11),
        "normal_form": cohomology.affine_normal_form(Weight(30, 4), 11),
        "cell": engine.cell(objs[-1], objs[0]).to_json(),
        "rules": len(karoubi.seed(ParabolicId.LONG, 6, 4).rules),
    }


def test_wrappers_return_what_the_wrapped_functions_return():
    from g2bwb import charring, cohomology, extcollection, modchar

    before = _sample_results()
    original = charring.weyl_character
    tracer = Tracer()
    tracer.install()
    try:
        assert charring.weyl_character is not original
        assert modchar.weyl_character is charring.weyl_character
        assert extcollection.weyl_character is charring.weyl_character
        assert charring.weyl_character.__wrapped__ is original
        after = _sample_results()
        info = charring.weyl_character.cache_info()
        assert info.hits + info.misses > 0
        assert cohomology.bott_line.cache_info()._asdict() == \
            tracer.document()["caches"]["cohomology.bott_line"]
        doc = json.loads(json.dumps(tracer.document()))
    finally:
        tracer.uninstall()
    assert after == before
    assert charring.weyl_character is original
    assert modchar.weyl_character is original

    calls = summarize(doc["names"], doc["spans"])
    assert calls["charring.tensor"]["calls"] >= 3
    assert calls["karoubi.seed"]["calls"] == 1
    assert calls["extcollection.cell"]["calls"] >= 1
    assert doc["counts"]["karoubi.seed.rules"] == before["rules"]
    assert doc["counts"]["extcollection.cell.distinct"] >= 1
    values = metrics.layer_values(doc)
    assert values["karoubi.seed.rules"] == before["rules"]
    assert 0 < values["extcollection.cell.distinct_ratio"] <= 1
    assert all(span[3] < i for i, span in enumerate(doc["spans"]))
