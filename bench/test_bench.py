"""Tests of the benchmark harness itself.

    python3 -m pytest -q bench
"""

from __future__ import annotations

import json

import pytest

import run
import tracer as tracing
import workloads as wl


# --- the tail percentile ---------------------------------------------------------------


def test_tail_has_ten_samples_beyond():
    value, level, n = run.tail([float(i) for i in range(1, 101)])
    assert (value, level, n) == (90.0, 90.0, 100)


def test_tail_is_order_free_and_moves_with_the_count():
    samples = [5.0, 1.0, 4.0, 2.0, 3.0, 9.0, 8.0, 7.0, 6.0, 10.0, 11.0]
    value, level, n = run.tail(samples)
    # eleven samples: only the smallest has ten beyond it
    assert (value, n) == (1.0, 11)
    assert level == pytest.approx(100 / 11)
    value, level, _ = run.tail(samples + [12.0] * 10)
    assert (value, level) == (11.0, pytest.approx(100 * 11 / 21))


def test_tail_with_too_few_samples_is_the_maximum():
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 3)


# --- self time --------------------------------------------------------------------------


def _self(spans):
    starts, ends, parents = zip(*spans)
    return tracing.self_times(starts, ends, parents)


def test_self_time_nested_and_sibling_spans():
    spans = [
        (0.0, 10.0, -1),  # 0: root
        (1.0, 4.0, 0),    # 1: child of root
        (2.0, 3.0, 1),    # 2: grandchild, inside 1
        (5.0, 9.0, 0),    # 3: second child of root
        (11.0, 12.0, -1), # 4: a second root
    ]
    assert _self(spans) == pytest.approx([3.0, 2.0, 1.0, 4.0, 1.0])


def test_self_time_counts_overlap_once_and_clips_to_the_parent():
    spans = [
        (0.0, 10.0, -1),
        (1.0, 5.0, 0),
        (3.0, 7.0, 0),    # overlaps its sibling by 2
        (8.0, 12.0, 0),   # runs 2 past its parent's end
    ]
    assert _self(spans)[0] == pytest.approx(10.0 - 6.0 - 2.0)


def test_recorded_spans_link_parents_and_self_times_add_up():
    tr = tracing.Tracer()

    def leaf(x):
        return x + 1

    leaf = tr.wrap("leaf", leaf)

    def outer(x):
        return leaf(x) + leaf(x)

    outer = tr.wrap("outer", outer)
    tr.item = 7
    assert outer(1) == 4
    assert tr.names == ["outer", "leaf", "leaf"]
    assert list(tr.parents) == [-1, 0, 0]
    assert list(tr.items) == [7, 7, 7]
    selfs = tracing.self_times(tr.starts, tr.ends, tr.parents)
    assert all(s >= 0 for s in selfs)
    assert sum(selfs) == pytest.approx(tr.ends[0] - tr.starts[0])


def test_a_raising_call_still_closes_its_span():
    tr = tracing.Tracer()

    def boom():
        raise ValueError("no")

    boom = tr.wrap("boom", boom)
    with pytest.raises(ValueError):
        boom()
    assert tr.info == [tracing.RAISED]
    assert tr.ends[0] >= tr.starts[0]
    assert tr._open == []


# --- seeded inputs ----------------------------------------------------------------------


@pytest.mark.parametrize("workload", sorted(wl.WORKLOADS))
def test_same_seed_same_inputs_other_seed_other_inputs(workload):
    a = wl.make_items(workload, 3, 200)
    assert a == wl.make_items(workload, 3, 200)
    assert a != wl.make_items(workload, 4, 200)
    assert a[:50] == wl.make_items(workload, 3, 50)
    json.dumps(a)  # plain data: strings, numbers and lists only


def test_sweep_mix_and_out_of_domain_probe():
    size = len(wl.SWEEP_BLOCK)
    items = wl.make_items("identity_sweep", 1, size * 20)
    for b in range(20):
        block = items[size * b: size * (b + 1)]
        assert sorted(i["ident"] for i in block) == sorted(wl.SWEEP_BLOCK)
        assert sum(i["ident"] == "all" and not i["x_positive"] for i in block) == 1
    assert not any(i["ood"] for i in items)
    assert all(i["x_positive"] for i in items if i["ident"] in wl.BESSEL_IDS)
    assert len({(i["argv"][6], i["argv"][8]) for i in items}) == 3
    probe = wl.ood_probe_items(1)
    assert [i["ident"] for i in probe] == list(wl.OOD_PROBE)
    assert all(i["ood"] and i["argv"][-3] == "--t" for i in probe)
    assert probe == wl.ood_probe_items(1) != wl.ood_probe_items(2)


# --- wrappers leave the program's results unchanged -------------------------------------


@pytest.fixture(scope="module")
def lib():
    return run.load_program()


def _calls(lib):
    """A few results through every layer, via module attributes."""
    mpf = lib.mpmath.mpf
    p = lib.qcore.QParams(mpf("0.55"), mpf("0.3"))
    acc = lib.scalars.CompensatedSum(mpf(0))
    acc.add(mpf("0.1"))
    acc.add(mpf("0.2"))
    item = {"argv": ["--format", "json", "--no-timestamp", "check", "even_gf",
                     "--q", "0.4", "--alpha", "0.5", "--x", "0.7", "--y", "0.5"]}
    return [
        acc.total,
        lib.qcore.q_pochhammer(mpf("0.3"), mpf("0.5"), None),
        lib.qcore.q_pochhammer(mpf("0.3"), mpf("0.5"), 7),
        lib.qseries.phi_rs(lib.qseries.PhiSpec((), (mpf("0.2"),), mpf("0.5"), mpf("0.3"))),
        lib.polyfam.gdqh2(9, mpf("0.8"), mpf("0.6"), p, rep="phi_form"),
        lib.identities.check_recurrence(12, p, mpf("0.8"), mpf("0.6")),
        wl.run_cli(lib, item),
        wl.run_high(lib, {"kind": "exact", "n": 12, "q": "2/5", "alpha": 1,
                          "x": "3/4", "y": "1/2"}),
    ]


def test_wrappers_leave_return_values_unchanged(lib):
    plain = _calls(lib)
    tr = tracing.Tracer()
    originals = {m: dict(vars(getattr(lib, m))) for m in ("qcore", "identities", "cli")}
    restore = tracing.install(tr, lib)
    try:
        assert lib.identities.check_even_odd_gf.__name__ == "check_even_odd_gf"
        assert lib.quadrature.gdqh2_recurrence_ladder is lib.identities.gdqh2_recurrence_ladder
        assert lib.quadrature.gdqh2_recurrence_ladder is not originals["identities"][
            "gdqh2_recurrence_ladder"]
        traced = _calls(lib)
    finally:
        restore()
    assert traced == plain
    assert len(tr) > 100
    for m, attrs in originals.items():
        assert all(getattr(getattr(lib, m), k) is v for k, v in attrs.items())


def test_layer_counts_for_one_single_id_item(lib):
    # check representation_phi runs check_representations at n = 0..12; each
    # call returns two reports and the suite keeps one
    item = wl.make_items("identity_sweep", 1, 1)[0]
    item = dict(item, ident="representation_phi", ood=False,
                argv=item["argv"][:4] + ["representation_phi"] + item["argv"][5:13])
    tr = tracing.Tracer()
    restore = tracing.install(tr, lib)
    try:
        outcome = wl.run_cli(lib, item)
    finally:
        restore()
    assert wl.check_sweep(lib, item, outcome).ok
    m = tracing.layer_metrics(tr)
    assert m["identities.check_representations.calls"] == 13
    assert m["identities.sibling_reports_discarded"] == 13
    assert m["polyfam.gdqh2.definition_sum.calls"] >= 13
    assert m["cli.main.calls"] == 1
    assert 0 < m["trace.top_level_self_s"] <= tr.ends[0] - tr.starts[0]


# --- scaling to the reference -----------------------------------------------------------


def test_speed_factors_use_the_timings_around_each_item():
    ref = run.REFERENCE_S
    refs = [(0, ref), (2, 2 * ref), (3, 4 * ref)]  # before items 0, 2 and after item 2
    assert run.speed_factors(3, refs) == pytest.approx([2 / 3, 2 / 3, 1 / 3])


def test_reference_leaves_the_precision_alone(lib):
    dps = lib.mpmath.mp.dps
    assert run.reference(lib.mpmath) > 0
    assert lib.mpmath.mp.dps == dps
