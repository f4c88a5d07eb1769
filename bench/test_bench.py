"""Tests of the benchmark itself.  From the repository root:

    python3 -m pytest bench/test_bench.py -q
"""
from __future__ import annotations

import io
import json
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import circperm.algebra  # noqa: E402
import circperm.pipeline  # noqa: E402
import tracing  # noqa: E402
from circperm.cli import main as cli_main  # noqa: E402
from reference import Reference, exact_terms, mod_term, PRIME  # noqa: E402
from run import end_to_end, per_layer, run_pass, tally  # noqa: E402
from tracing import Tracer, self_times  # noqa: E402
from workloads import WORKLOADS, make_jobs  # noqa: E402


def test_self_times_subtract_direct_children():
    # job 0..10 holds fit 1..4 (which holds ryser 2..3) and render 6..7
    spans = [("cli", 0.0, 10.0, None, 0),
             ("algebra.fit", 1.0, 4.0, 0, 0),
             ("oracle.ryser", 2.0, 3.0, 1, 0),
             ("report.render", 6.0, 7.0, 0, 0),
             ("cli", 10.0, 12.0, None, 1),
             ("algebra.fit", 10.5, 11.0, 4, 1)]
    st = self_times(spans)
    assert st == {"cli": 10.0 - 3.0 - 1.0 + 2.0 - 0.5,
                  "algebra.fit": 2.0 + 0.5,
                  "oracle.ryser": 1.0,
                  "report.render": 1.0}
    assert sum(st.values()) == pytest.approx(12.0)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_same_jobs(workload):
    first = json.dumps(make_jobs(workload, 7))
    assert json.dumps(make_jobs(workload, 7)) == first
    assert any(json.dumps(make_jobs(workload, s)) != first for s in range(8, 20))


def test_every_drawable_job_is_pinned():
    expected = Reference().expected
    for workload in WORKLOADS:
        for seed in range(200):
            for job in make_jobs(workload, seed):
                assert job["key"] in expected
                assert job.get("verify_key", job["key"]) in expected


def test_mod_term_matches_plain_iteration():
    rec = Reference().expected["T:0,1,4||1/2,3,-1"]
    want = exact_terms(rec, 60)[-1]
    got = mod_term(rec, rec["base"] + 59)
    assert got == want.numerator % PRIME * pow(want.denominator, -1, PRIME) % PRIME


def _cli(argv):
    out = io.StringIO()
    with redirect_stdout(out):
        rc = cli_main(argv)
    return {"rc": rc, "out": out.getvalue(), "error": None, "t": 0.01}


class CannedWorker:
    """Answers job requests with fixed replies, one per job id."""

    def __init__(self, replies):
        self.replies = replies

    def ask(self, op, **request):
        if op == "ref":
            return {"t": [0.01]}
        return self.replies[request["id"]]


def test_corrupted_output_counts_as_failed():
    jobs = make_jobs("fit-ladder", 0)[:1]           # derive on a shifted {0,1,2}
    jobs.append({"id": 1, "kind": "eval", "key": "T:0,1,2||", "n": 300,
                 "jumps": "0,1,2", "size": None, "weights": None,
                 "argv": ["eval", "--jumps", "0,1,2", "--n", "300",
                          "--out", "json"]})
    good = [_cli(job["argv"]) for job in jobs]
    ref = Reference()
    clean = run_pass(CannedWorker(good), jobs, ref, traced=False)
    assert tally(jobs, [clean]) == (2, [])

    bad = [dict(r) for r in good]
    rep = json.loads(bad[0]["out"])
    rep["terms"]["values"][2] = str(int(rep["terms"]["values"][2]) + 1)
    bad[0]["out"] = json.dumps(rep)
    rep = json.loads(bad[1]["out"])
    rep["value"] = str(int(rep["value"]) - 1)
    bad[1]["out"] = json.dumps(rep)
    corrupted = run_pass(CannedWorker(bad), jobs, ref, traced=False)
    attempted, failures = tally(jobs, [clean, corrupted])
    assert attempted == 4
    assert [job_id for job_id, _ in failures] == [0, 1]


def test_failed_exit_and_crash_count_as_failed():
    jobs = make_jobs("fit-ladder", 0)[:2]
    replies = [{"rc": 1, "out": "", "error": None, "t": 0.0},
               {"rc": None, "out": "", "error": "Traceback\nValueError: x",
                "t": 0.0}]
    p = run_pass(CannedWorker(replies), jobs, Reference(), traced=False)
    assert [reason for _, reason in p["failures"]] == [
        "exit code 1", "exit code None; ValueError: x"]


def test_tracing_restores_the_originals():
    originals = {}
    for module, name, _, _ in tracing.WRAPPED:
        mod = sys.modules.get(module) or __import__(module, fromlist=[name])
        originals[(module, name)] = getattr(mod, name)
    tracer = Tracer()
    tracer.install()
    assert circperm.pipeline.min_recurrence is not circperm.algebra.min_recurrence
    with tracer.span(tracing.JOB_SPAN, 0):
        assert _cli(["derive", "--jumps", "0,1,4", "--out", "json"])["rc"] == 0
    tracer.restore()
    assert circperm.pipeline.min_recurrence is circperm.algebra.min_recurrence
    for (module, name), fn in originals.items():
        assert getattr(sys.modules[module], name) is fn
    spans, counts = tracer.take()
    names = {s[0] for s in spans}
    assert {"cli", "algebra.fit", "transfer.t0", "oracle.ryser"} <= names
    assert counts["algebra.fit.calls"] == 1
    assert counts["transfer.states"] == 4 ** 4
    assert sum(self_times(spans).values()) == pytest.approx(spans[0][2] - spans[0][1])


def test_missing_name_is_untraced_not_fatal(monkeypatch):
    monkeypatch.setattr(tracing, "WRAPPED", tracing.WRAPPED + (
        ("circperm.pipeline", "renamed_away", "algebra.fit", None),
        ("circperm.no_such_module", "fn", "algebra.fit", None)))
    tracer = Tracer()
    tracer.install()
    try:
        assert _cli(["derive", "--jumps", "0,1,2", "--out", "json"])["rc"] == 0
    finally:
        tracer.restore()
    assert tracer.untraced == ["circperm.pipeline.renamed_away",
                               "circperm.no_such_module.fn"]


def test_job_times_are_scaled_by_their_own_loops():
    # the second pass ran on a host 1.5 times slower, but only during job 1
    passes = [{"trips": [1.0, 2.0], "times": [0.9, 1.9], "refs": [0.01, 0.01]},
              {"trips": [1.0, 3.0], "times": [0.9, 2.85], "refs": [0.01, 0.015]}]
    metrics = end_to_end(passes, 0.1, 2048)
    assert metrics["wall_ref"][0] == pytest.approx(300)
    assert metrics["job_p50_ref"][0] == pytest.approx((90 + 190) / 2)
    assert metrics["job_max_ref"][0] == pytest.approx(190)


def test_metric_names_match_benchmark_json():
    spec = json.loads((Path(__file__).resolve().parents[1]
                       / "BENCHMARK.json").read_text())
    spans = [("cli", 0.0, 2.0, None, 0), ("algebra.fit", 0.5, 1.5, 0, 0)]
    passes = [{"traced": True, "wall": 2.1, "times": [2.0], "spans": spans,
               "counts": {"algebra.fit.terms_in": 10}, "untraced": []},
              {"traced": False, "wall": 2.0, "times": [2.0], "trips": [2.0],
               "refs": [0.01]}]
    assert list(per_layer(passes)) == [m["name"] for m in spec["per_layer"]]
    assert list(end_to_end(passes[1:], 0.1, 2048)) == [
        m["name"] for m in spec["end_to_end"]]
    for metrics, kind in ((per_layer(passes), "per_layer"),
                          (end_to_end(passes[1:], 0.1, 2048), "end_to_end")):
        assert [u for _, u in metrics.values()] == [m["unit"] for m in spec[kind]]
