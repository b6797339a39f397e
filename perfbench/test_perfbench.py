"""Self-tests of the benchmark at toy grid sizes.

Run from the root of a checkout:

    python3 -m pytest -q perfbench

A traced pass of each workload must leave untouched the layers the workload
is chosen to bypass, the tracer must restore every binding it replaced, and
the input generator must be a pure function of the seed.
"""

import json
import math

import pytest

import run
import tracer as tr
import workloads

cli = run._import_cli()


def _traced_pass(name, tmp_path, seed=3):
    workload = workloads.generate(name, seed, tmp_path, size="toy")
    run.run_pass(cli, workload.jobs)  # fill first-call caches outside the trace
    with tr.Tracer(tr.TARGETS) as tracer:
        _, outcomes = run.run_pass(cli, workload.jobs, tracer)
    assert tracer.absent == []
    commands = {job.name: job.command for job in workload.jobs}
    return tr.summarize(tracer.spans, commands), outcomes


@pytest.fixture(scope="module", params=workloads.WORKLOADS)
def traced(request, tmp_path_factory):
    return request.param, _traced_pass(request.param, tmp_path_factory.mktemp(request.param))


def test_every_job_meets_its_verdict_or_a_known_defect(traced):
    _, (_, outcomes) = traced
    for job, failed, known, reason in outcomes:
        assert not failed or known, f"{job.name}: {reason}"


def test_bypass_predictions(traced):
    name, (layers, _) = traced
    if name == "fiber":
        assert layers["fd.apply_diff.calls"] == 0
        assert layers["forms.hodge_star.calls"] > 0
    else:
        assert layers["forms.hodge_star.calls"] == 0
        assert layers["fd.apply_diff.calls"] > 0
    if name == "curvature":
        assert layers["hessian.spsolve.calls"] == 0
        assert layers["hessian.legendre_transform.calls"] == 0
    if name == "chart":
        assert layers["hessian.newton_steps"] > 0
        assert 0 < layers["hessian.linesearch_useful_ratio"] <= 1


def test_every_per_layer_metric_is_reported(traced):
    _, (layers, _) = traced
    assert set(layers) == set(tr.metric_units())
    jobs = {"fiber": 4, "chart": 5, "curvature": 6}[traced[0]]
    assert layers["cli.main.calls"] == jobs


def test_self_time_never_exceeds_busy_time(traced):
    _, (layers, _) = traced
    for target in tr.TARGETS:
        busy = layers[f"{target.label}.busy_s"]
        assert 0 <= layers[f"{target.label}.self_s"] <= busy + 1e-9


def test_tracer_wraps_every_binding_and_restores_it():
    import slmoduli
    import slmoduli.fd as fd
    import slmoduli.hessian as hessian
    import slmoduli.semiflat as semiflat
    from slmoduli.family import AffineSLagFamily

    originals = (fd.apply_diff, hessian.legendre_transform, AffineSLagFamily.period_matrices)
    targets = tr.TARGETS + [tr.Target("forms.missing", "slmoduli.forms", "no_such_function")]
    with tr.Tracer(targets) as tracer:
        assert fd.apply_diff is hessian.apply_diff is semiflat.apply_diff
        assert fd.apply_diff is not originals[0]
        assert slmoduli.legendre_transform is hessian.legendre_transform
        assert hessian.legendre_transform is not originals[1]
        assert AffineSLagFamily.period_matrices is not originals[2]
    assert tracer.absent == ["forms.missing"]
    assert (fd.apply_diff, hessian.legendre_transform,
            AffineSLagFamily.period_matrices) == originals
    assert semiflat.apply_diff is originals[0]
    assert slmoduli.legendre_transform is originals[1]


def test_self_time_subtracts_child_spans():
    spans = [
        tr.Span("cli.main", 0.0, 10.0, -1, "job"),
        tr.Span("fd.hessian_field", 1.0, 4.0, 0, "job"),
        tr.Span("fd.apply_diff", 2.0, 3.0, 1, "job", {"fd.apply_diff.nodes": 7}),
    ]
    out = tr.summarize(spans, {"job": "gh"})
    assert out["cli.main.self_s"] == pytest.approx(7.0)
    assert out["fd.hessian_field.self_s"] == pytest.approx(2.0)
    assert out["fd.apply_diff.busy_s"] == pytest.approx(1.0)
    assert out["cli.gh.busy_s"] == pytest.approx(10.0)
    assert out["fd.apply_diff.nodes"] == 7


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_inputs_depend_only_on_the_seed(name, tmp_path):
    def snapshot(seed, where):
        workload = workloads.generate(name, seed, tmp_path / where, size="toy")
        files = {p.name: p.read_text() for p in (tmp_path / where).glob("*.json")}
        return [(d.name, d.value) for d in workload.draws], json.dumps(files, sort_keys=True)

    first, again, other = snapshot(5, "a"), snapshot(5, "b"), snapshot(6, "c")
    assert first[0] == again[0] and first[0] != other[0]
    assert first[1].replace(str(tmp_path / "a"), "") == again[1].replace(str(tmp_path / "b"), "")


def test_quartic_passes_only_when_its_must_fail_check_fails(tmp_path):
    workload = workloads.generate("curvature", 1, tmp_path, size="toy")
    quartic = next(job for job in workload.jobs if job.must_fail)
    quartic.out.mkdir()

    def judged(failing):
        checks = {name: {"pass": name not in failing} for name in ("prop5", "ricci_flat")}
        report = {"command": "semiflat", "checks": checks}
        (quartic.out / "report.json").write_text(json.dumps(report))
        return run.judge(quartic, 1, None)

    assert judged({"prop5", "ricci_flat"}) == (False, False, "ok")
    failed, known, reason = judged({"ricci_flat"})
    assert failed and not known, reason


def test_command_prints_the_contract_line(capsys, monkeypatch):
    monkeypatch.setitem(workloads.SIZES, "full", workloads.SIZES["toy"])
    with open(run.ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        argv = ["--workload", "curvature", "--seed", "2", "--seconds", "0",
                "--trace", str(trace)]
        assert run.main(argv) == 0
        result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["attempted"] >= 1
        names = {metric["name"]: metric["unit"] for metric in spec[section]}
        assert {k: v["unit"] for k, v in result["metrics"].items()} == names
        assert all(math.isfinite(v["value"]) for v in result["metrics"].values())
