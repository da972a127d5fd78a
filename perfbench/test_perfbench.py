"""Tests of the benchmark itself: span arithmetic, statistics, oracles, tracer."""

import json
import os
import sys
from collections import Counter

import numpy as np
import pytest

import calibrate
import metrics
import oracles
import run
import spans
import stats
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


# ------------------------------------------------------------- self time


def test_self_time_of_a_synthetic_span_tree():
    tree = [
        ["root", 0.0, 10.0, None, "a"],
        ["child", 1.0, 3.0, 0, "a"],
        ["child", 2.0, 5.0, 0, "a"],  # overlaps the first child: union is [1, 5]
        ["grandchild", 2.5, 4.0, 2, "a"],
        ["late", 9.0, 12.0, 0, "a"],  # runs past its parent: only [9, 10] counts
    ]
    assert spans.self_times(tree) == pytest.approx([5.0, 2.0, 1.5, 1.5, 3.0])
    calls, self_s, incl_s = spans.summarize(tree)
    assert calls["child"] == 2
    assert self_s["child"] == pytest.approx(3.5)
    assert incl_s["child"] == pytest.approx(5.0)


def test_layer_totals_add_up_self_times():
    tree = [
        ["extraction.extract_measure", 0.0, 4.0, None, "0.0"],
        ["linalg.hermitian_eig", 1.0, 2.0, 0, "0.0"],
        ["linalg.takagi", 2.0, 3.5, 0, "0.0"],
        ["linalg.hermitian_eig", 2.5, 3.0, 2, "0.0"],
    ]
    values = metrics.layer_values(tree, Counter(), 0.0)
    assert values["linalg.self_s"] == pytest.approx(2.5)
    assert values["extraction.self_s"] == pytest.approx(1.5)
    assert values["linalg.takagi.self_s"] == pytest.approx(1.0)
    assert values["linalg.takagi.incl_s"] == pytest.approx(1.5)
    assert values["linalg.hermitian_eig.calls"] == 2
    assert set(values) == {name for name, *_ in metrics.PER_LAYER}


# ------------------------------------------------------------ statistics


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    values = list(range(100, 0, -1))
    assert stats.tail(values) == (90, 90.0, 100)
    assert stats.tail(list(range(11))) == (0, 100.0 / 11, 11)
    assert stats.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 3)


def test_quartile_spread():
    assert stats.quartile_spread([1.0, 2.0, 3.0, 4.0, 5.0]) == pytest.approx(3.0 / 3.0)


def test_speed_factors_follow_the_rolling_median_of_the_kernel():
    ref = calibrate.REF_S
    # a kernel twice as slow in the second half: factors halve there, and a
    # single spike inside a window does not move them
    times = [ref] * 20 + [2 * ref] * 20
    times[5] = 50 * ref
    got = calibrate.factors(times, window=5)
    assert got[:18] == [1.0] * 18 and got[-18:] == [0.5] * 18
    # windows at the ends stay inside the list; a short list uses all of it
    assert calibrate.factors([ref, 2 * ref, 4 * ref], window=5) == [0.5] * 3


# --------------------------------------------------------------- oracles


def _first(workload, seed=3):
    return workload.make_round(seed, 0)[0]


def test_measure_oracle_rejects_a_perturbed_atom_or_weight():
    wl = workloads.MeasureRoundTrip()
    inst = _first(wl)
    measure = wl.execute(inst)
    assert wl.check(inst, measure) is None
    atoms = [list(a) for a in measure.atoms]
    atoms[0][0] += 1e-5
    assert "atom error" in oracles.check_measure(
        inst.data["atoms"], inst.data["weights"], atoms, measure.weights)
    weights = list(measure.weights)
    weights[-1] *= 1 + 1e-5
    assert "weight error" in oracles.check_measure(
        inst.data["atoms"], inst.data["weights"], measure.atoms, weights)
    assert "atoms" in oracles.check_measure(
        inst.data["atoms"], inst.data["weights"], measure.atoms[1:], measure.weights[1:])


def test_expsum_oracle_rejects_a_perturbed_frequency_or_weight():
    wl = workloads.ExpSumRoundTrip()
    inst = _first(wl)
    model = wl.execute(inst)
    assert wl.check(inst, model) is None
    terms = [(t.weight, t.frequencies) for t in model.terms]
    w, f = terms[0]
    shifted = [(w, (f[0] + 1e-5j,) + tuple(f[1:]))] + terms[1:]
    assert "frequency error" in oracles.check_expsum(inst.data["terms"], shifted)
    # a full turn of the imaginary part is the same term
    wrapped = [(w, (f[0] + 2j * np.pi,) + tuple(f[1:]))] + terms[1:]
    assert oracles.check_expsum(inst.data["terms"], wrapped) is None
    reweighted = [(w + 1e-5, f)] + terms[1:]
    assert "weight error" in oracles.check_expsum(inst.data["terms"], reweighted)


def test_ball_oracle_rejects_a_perturbed_objective_or_atom():
    wl = workloads.PopBall()
    inst = _first(wl)
    solution, measure = wl.execute(inst)
    assert wl.check(inst, (solution, measure)) is None
    q, exps = inst.data["q"], inst.data["exps"]
    dual = solution.dual_objective
    assert "f(atom)" in oracles.check_ball_minimizers(q, exps, measure.atoms, dual - 1e-4, True)
    assert "not certified" in oracles.check_ball_minimizers(q, exps, measure.atoms, dual, False)
    outside = [tuple(1.01 * z / np.linalg.norm(a) for z in a) for a in measure.atoms]
    assert "outside the ball" in oracles.check_ball_minimizers(q, exps, outside, dual, True)


def test_cli_oracle_rejects_a_perturbed_objective(tmp_path):
    wl = workloads.CliDemos(ROOT, str(tmp_path))
    inst = _first(wl)
    runs = wl.execute(inst)
    assert wl.check(inst, runs) is None
    code, text = runs[2]
    bad = text.replace("solver.primal_objective 0.4281", "solver.primal_objective 0.4381")
    assert bad != text
    changed = runs[:2] + [(code, bad)] + runs[3:]
    assert "objective" in wl.check(inst, changed)
    exit0 = runs[:1] + [(0, runs[1][1])] + runs[2:]
    assert "exit 0, expected 9" in wl.check(inst, exit0)


# ---------------------------------------------------------------- tracer


def _bindings():
    out = {}
    for name, mod in sys.modules.items():
        if mod is not None and (name == "momext" or name.startswith("momext.")):
            for key, value in vars(mod).items():
                out[(name, key)] = id(value)
                if isinstance(value, type) and value.__module__ == name:
                    for attr, member in vars(value).items():
                        out[(name, key, attr)] = id(member)
    return out


def test_tracer_wraps_every_lookup_and_restores_momext():
    import momext.extraction
    import momext.hierarchy
    import momext.interp

    before = _bindings()
    original = momext.moment.moment_matrix
    wl = workloads.PopBall()
    inst = _first(wl)
    plain = wl.fingerprint(wl.execute(inst))
    with spans.Tracer() as tracer:
        assert momext.moment.moment_matrix is not original
        assert momext.extraction.moment_matrix is momext.moment.moment_matrix
        assert momext.interp.extract_measure is momext.extraction.extract_measure
        assert momext.hierarchy.RelaxationMap.sequence_from_values.__wrapped__
        tracer.instance = "x"
        traced = wl.fingerprint(wl.execute(inst))
    assert _bindings() == before
    assert momext.moment.moment_matrix is original
    assert traced == plain
    names = {s[0] for s in tracer.spans}
    assert {"sdp.solve", "hierarchy.realify", "hierarchy.sequence_from_values",
            "extraction.extract_measure", "moment.moment_matrix"} <= names
    assert {s[4] for s in tracer.spans} == {"x"}
    assert tracer.counts["sdp.status.optimal"] == 1


def test_every_per_layer_function_metric_is_traced():
    import momext.cli  # noqa: F401  (not imported by the package itself)

    traced = {spans.span_name(name) for name in spans.traced_names()}
    for name, *_ in metrics.PER_LAYER:
        head, _, tail = name.rpartition(".")
        if tail in ("calls", "self_s", "incl_s") and head not in spans.LAYERS:
            assert head in traced, f"{name} names a function the tracer never wraps"


def test_benchmark_json_matches_the_metric_tables():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]] \
        == metrics.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == [row[:3] for row in metrics.PER_LAYER]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [w["why"] for w in spec["workloads"]] == [w.why for w in workloads.WORKLOADS.values()]
    assert run.WORKLOAD_NAMES == list(workloads.WORKLOADS)
    assert run.BY_HAND == list(workloads.BY_HAND)
    assert spec["command"] == ["python3", "perfbench/run.py"]
