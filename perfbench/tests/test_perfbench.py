"""Tests of the benchmark itself: names, predictions, wrappers, accounting.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.dont_write_bytecode = True
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import gen  # noqa: E402
import layers  # noqa: E402
import metrics_spec  # noqa: E402
import run  # noqa: E402
import traced  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
E2E = dict(run.END_TO_END)


def test_names_are_valid_and_unique():
    names = (
        [w["name"] for w in BENCHMARK["workloads"]]
        + [m["name"] for m in BENCHMARK["end_to_end"]]
        + [m["name"] for m in BENCHMARK["per_layer"]]
        + list(E2E)
        + list(metrics_spec.PER_LAYER)
    )
    for name in names:
        assert metrics_spec.NAME.fullmatch(name), name
    metrics_spec.check_names([w["name"] for w in BENCHMARK["workloads"]])
    metrics_spec.check_names(
        [m["name"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]]
    )
    with pytest.raises(ValueError):
        metrics_spec.check_names(["ok", "ok"])
    with pytest.raises(ValueError):
        metrics_spec.check_names(["has space"])


def test_benchmark_json_matches_the_code():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)
    reported = [m for m in E2E if m not in run.PRINT_ONLY]
    assert [m["name"] for m in BENCHMARK["end_to_end"]] == reported
    for metric in BENCHMARK["end_to_end"]:
        assert metric["unit"] == E2E[metric["name"]]
        assert 0 < metric["bound"] <= 0.25
    setup = next(m for m in BENCHMARK["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in BENCHMARK["end_to_end"])
    assert {m["name"]: (m["unit"], m["better"]) for m in BENCHMARK["per_layer"]} == {
        name: spec[:2]
        for name, spec in metrics_spec.PER_LAYER.items()
        if name not in metrics_spec.PRINT_ONLY
    }
    assert set(metrics_spec.PRINT_ONLY) <= set(metrics_spec.PER_LAYER)


def test_every_per_layer_metric_names_an_end_to_end_metric_and_workload():
    for name, (_unit, better, moves) in metrics_spec.PER_LAYER.items():
        assert better in ("higher", "lower"), name
        assert moves, name
        for metric, workload in moves:
            assert metric in E2E, (name, metric)
            assert workload in run.WORKLOADS, (name, workload)
    layer_names = {name.split(".")[0] for name in metrics_spec.PER_LAYER}
    assert set(layers.LAYERS) <= layer_names


def test_inputs_come_from_the_seed_alone():
    assert list(gen.INPUTS) == list(run.WORKLOADS) == list(workloads.CONFIGS)
    for make in gen.INPUTS.values():
        assert make(7) == make(7)
        assert make(7) != make(8)


def test_deck_keeps_exact_proportions():
    import random

    cards = gen.deck(random.Random(1), (("a", 3), ("b", 1)), 10)
    assert sorted(cards) == ["a"] * 8 + ["b"] * 2


def _class_attributes() -> dict:
    return {(cls, name): vars(cls)[name] for _, cls, name in layers.targets()}


def test_wrappers_restore_the_original_functions():
    before = _class_attributes()
    installed = layers.install(layers.Profile())
    try:
        wrapped = _class_attributes()
        assert all(wrapped[key] is not fn for key, fn in before.items())
    finally:
        layers.uninstall(installed)
    after = _class_attributes()
    assert all(after[key] is fn for key, fn in before.items())


def _small_episode() -> gen.Episode:
    users = gen.user_names(4)
    ops = (
        gen.Op("schedule", "u0", ("m0", ("u1", "u2"))),
        gen.Op("poll", "u1", ("u0", 0, 10)),
        gen.Op("block", "u2", (0.5,)),
        gen.Op("schedule", "u3", ("m3", ("u0",))),
        gen.Op("cancel", "u0", (0.0,)),
        gen.Op("unblock", "u2", (0.0,)),
    )
    return gen.Episode(1, users, {u: 0 for u in users}, ops, (0.5,) * len(ops))


def test_traced_self_times_sum_to_traced_wall_time():
    profile = layers.Profile()
    probe = traced.LayerProbe(profile)
    tally = workloads.Tally()
    installed = layers.install(profile)
    try:
        workloads.run_episode(
            _small_episode(),
            workloads.CONFIGS["steady"],
            tally,
            probe,
            tracing=False,
            host=workloads.HostSpeed(),
        )
    finally:
        layers.uninstall(installed)
    profile.finish()
    assert tally.wrong == [] and tally.violations == [] and tally.errors == 0
    assert profile.calls["calendar"] > 0 and profile.calls["net"] > 0
    assert all(s >= 0 for s in profile.self_s.values())
    assert sum(profile.self_s.values()) == pytest.approx(profile.window_s, rel=1e-9)
    nested = sum(s for layer, s in profile.self_s.items() if layer != "bench")
    assert nested == pytest.approx(profile.top_s, rel=1e-9)
    # the wrapped run is the same run: wrappers change no outcome
    plain = workloads.Tally()
    workloads.run_episode(
        _small_episode(),
        workloads.CONFIGS["steady"],
        plain,
        workloads.Probe(),
        tracing=False,
        host=workloads.HostSpeed(),
    )
    assert plain.fingerprint() == tally.fingerprint()


def test_virtual_time_split_covers_every_op():
    tally = workloads.Tally()
    workloads.run_episode(
        _small_episode(),
        workloads.CONFIGS["steady"],
        tally,
        workloads.Probe(),
        tracing=True,
        host=workloads.HostSpeed(),
        attribute_virt=True,
    )
    assert tally.virt_ops == tally.attempted
    assert sum(tally.virt_split.values()) == pytest.approx(sum(tally.op_virt), rel=1e-9)
    assert traced.problems_of(layers.Profile(), tally) == []


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert run.percentile(values, 50) == 50
    assert run.percentile(values, 99) == 99
    assert run.percentile([3.0], 99) == 3.0
