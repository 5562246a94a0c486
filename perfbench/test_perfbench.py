"""Fast checks of the benchmark itself, on a tiny corpus and stream."""

import json
from pathlib import Path

import pytest

import run

run.use_checkout_source()
import bench  # noqa: E402 - needs the source path set above

TINY = bench.Sizes(docs=20, stream=50, probe=20)


def _load(path):
    return json.loads(Path(path).read_text(encoding="utf-8"))


def _units(kind):
    return {m["name"]: m["unit"] for m in _load(run.ROOT / "BENCHMARK.json")[kind]}


def test_spec_matches_emitted_names_and_units():
    assert bench.END_TO_END == _units("end_to_end")
    assert bench.PER_LAYER == _units("per_layer")
    spec = _load(run.ROOT / "BENCHMARK.json")
    assert {w["name"] for w in spec["workloads"]} == set(bench.WORKLOADS)
    notes = _load(run.HERE / "metrics.json")
    assert set(notes["workloads"]) == set(bench.WORKLOADS)
    assert set(notes["end_to_end"]) == set(bench.END_TO_END)
    assert set(notes["per_layer"]) == set(bench.PER_LAYER)


@pytest.mark.parametrize("workload", sorted(bench.WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_workload_emits_every_metric(workload, trace):
    result, report = bench.run(workload, seed=7, seconds=0, trace=trace, sizes=TINY)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], report["checks"]
    assert result["attempted"] >= 1
    expected = _units("per_layer" if trace else "end_to_end")
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), name
    assert report["digest"]
    assert report["environment"]["seed"] == 7
    assert report["repeats"] == 2
    for speed in report["speed"]:
        assert speed["samples"] >= 1
    if trace:
        assert (run.ROOT / report["spans_file"]).is_file()
        assert report["unwrapped_sites"] == []
        assert result["metrics"]["features.featurize_calls"]["value"] > 0


def test_stream_holds_degenerate_documents():
    stream = bench.make_stream(TINY.stream, 8)
    assert len(stream) == TINY.stream
    assert len(stream[0].tokens) == 0
    big = bench.make_stream(250, 8)
    assert len(big) == 250
    assert [i for i, d in enumerate(big) if d.id.startswith("degenerate")] == [0, 100, 200]


def test_raising_document_is_counted_not_fatal(monkeypatch):
    import bien.evaluation

    real_decode = bien.evaluation.decode

    def decode(chain, obs):
        if len(obs) == 0:
            raise IndexError("empty document")
        return real_decode(chain, obs)

    monkeypatch.setattr(bien.evaluation, "decode", decode)
    records = [bench.repeat("extract", 7, TINY)[0] for _ in range(2)]
    result, report = bench.summarise("extract", 7, TINY, False, records)
    assert result["correct"]
    assert result["attempted"] == 2 * TINY.stream
    assert result["failed"] == 2
    assert report["errors"] == {"IndexError": 2}
    assert [p["samples"] for p in report["passes"]] == [TINY.stream - 1] * 2
    assert report["latency"]["samples"] == TINY.stream - 1
    assert result["metrics"]["success_rate"]["value"] < 1.0


def test_failed_repeat_fails_the_run():
    result, report = bench.summarise("extract", 7, TINY, False, [], ["exit 1: boom"])
    assert not result["correct"]
    assert result["failed"] >= 1 and result["attempted"] >= 1
    assert not report["checks"]["repeats_ran"]


def test_trace_reports_a_vanished_span(monkeypatch):
    """A refactor that stops calling through bien.evaluation.viterbi."""
    import bien.evaluation
    import bien.inference

    def decode(chain, obs):
        path, score = bien.inference.viterbi(chain, bien.inference.Evidence(obs))
        tags = chain.tag_of[path]
        spans, diagnostics = bien.evaluation.assemble_slots(tags, chain.model.tags)
        return bien.evaluation.DecodeResult(tags, chain.ds_of[path], score, spans,
                                            diagnostics)

    monkeypatch.setattr(bien.evaluation, "decode", decode)
    monkeypatch.delattr(bien.evaluation, "viterbi")
    tiny = bench.Sizes(docs=20, stream=5, probe=5)
    records = [bench.repeat("extract", 7, tiny, traced=t)[0] for t in (False, True)]
    result, report = bench.summarise("extract", 7, tiny, True, records)
    assert result["correct"], report["checks"]
    assert "bien.evaluation.viterbi" in report["unwrapped_sites"]
    assert "inference.viterbi" in report["missing_spans"]
    assert result["metrics"]["inference.viterbi_s"]["value"] == 0.0
    assert not hasattr(bien.evaluation, "viterbi")


def test_speed_probe_takes_kernel_time_out_and_scales_by_slowdown():
    from speed import REFERENCE_KERNEL_S, SpeedProbe

    probe = SpeedProbe()  # not entered: no timer, samples only where taken here
    probe._sample(None, None)
    a = probe.mark()
    probe._sample(None, None)  # one sample inside the span, as SIGALRM would take it
    b = probe.mark()
    assert b[1] - a[1] == probe.kernel_s[-1]
    slowdown = probe.slowdown(a[0], b[0])
    assert slowdown == pytest.approx(probe.kernel_s[-1] / REFERENCE_KERNEL_S)
    own = (b[0] - a[0]) - probe.kernel_s[-1]
    assert probe.reference_s(a, b) == pytest.approx(own / slowdown)
    # a span no sample started in borrows the nearest sample's slowdown
    assert probe.slowdown(b[0] + 1.0, b[0] + 2.0) == pytest.approx(slowdown)
