"""Tests of the benchmark itself: python3 -m pytest perfbench/tests -q"""

import json
import os
import subprocess
import sys

import pytest

import run
import tracer
import workloads

RUN = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "run.py")


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_smoke_tiny_run(workload):
    trace = 1 if workload == "malliavin" else 0
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--tiny", "--seconds", "1",
         "--seed", "7", "--trace", str(trace)],
        capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, proc.stdout
    assert result["attempted"] >= run.MIN_INSTANCES
    expected = tracer.LAYER_METRICS if trace else run.END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    if trace:
        assert result["metrics"]["analysis.malliavin_steps"]["value"] == 528
        assert result["metrics"]["stochastics.lstsq.calls"]["value"] == 96
    else:
        assert all(v["value"] > 0 for v in result["metrics"].values())
    for line in ("error_rate", "verify_err"):
        assert line in proc.stdout


def _bindings():
    """Every binding the tracer could touch: module and class namespaces of
    bspde, the CLI command table and numpy.linalg."""
    import numpy.linalg

    from bspde import analysis, cli, grid, model, solver, stochastics

    snap = {}
    for mod in (analysis, cli, grid, model, solver, stochastics, numpy.linalg):
        snap[mod.__name__] = dict(vars(mod))
        for name, obj in vars(mod).items():
            if isinstance(obj, type) and obj.__module__ == mod.__name__:
                snap[f"{mod.__name__}.{name}"] = dict(vars(obj))
    snap["bspde.cli.COMMANDS"] = dict(cli.COMMANDS)
    return snap


def _assert_same(before, after):
    assert before.keys() == after.keys()
    for owner, names in before.items():
        assert names.keys() == after[owner].keys(), owner
        changed = [n for n, obj in names.items() if after[owner][n] is not obj]
        assert not changed, (owner, changed)


def test_tracer_restores_bindings(tmp_path):
    from bspde import cli

    config = workloads.make_config("compare", seed=3, tiny=True)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    before = _bindings()
    with tracer.Tracer("t") as tr:
        assert cli.COMMANDS["compare"] is not before["bspde.cli.COMMANDS"]["compare"]
        assert cli.main(["compare", "--config", str(path), "--out", str(tmp_path / "out")]) == 0
    _assert_same(before, _bindings())
    names = {s["name"] for s in tr.spans}
    assert {"cli.command", "solver.solve", "stochastics.condexp", "stochastics.lstsq"} <= names
    assert all(s["end"] >= s["start"] and s["run"] == "t" for s in tr.spans)


def test_tracer_restores_bindings_after_an_exception():
    from bspde import ConfigError, cli

    before = _bindings()
    with pytest.raises(ConfigError):
        with tracer.Tracer("t") as tr:
            cli.load_config("no-such-file.json")
    assert [s["name"] for s in tr.spans] == ["cli.config"]
    _assert_same(before, _bindings())


def _span(i, name, start, end, parent, **attrs):
    return dict(id=i, name=name, start=start, end=end, parent=parent, run="r", **attrs)


def test_self_times_on_a_synthetic_tree():
    spans = [
        _span(0, "cli.main", 0.0, 10.0, None),
        _span(1, "stochastics.condexp", 1.0, 4.0, 0, entries=100),
        _span(2, "stochastics.lstsq", 2.0, 3.0, 1),
        _span(3, "stochastics.condexp", 5.0, 9.0, 0, entries=50),
        _span(4, "stochastics.lstsq", 5.5, 6.0, 3),
        _span(5, "stochastics.lstsq", 6.0, 7.5, 3),
    ]
    assert tracer.self_times(spans) == pytest.approx(
        {0: 3.0, 1: 2.0, 2: 1.0, 3: 2.0, 4: 0.5, 5: 1.5}
    )
    table = tracer.layer_metrics(spans, output_bytes=7)
    assert table["stochastics.condexp.calls"] == 2
    assert table["stochastics.condexp.s"] == pytest.approx(4.0)
    assert table["stochastics.condexp.entries"] == 150
    assert table["stochastics.lstsq.calls"] == 3
    assert table["stochastics.lstsq.s"] == pytest.approx(3.0)
    assert table["cli.output.bytes"] == 7
    assert set(table) | {"trace.wall_s", "trace.overhead_s"} == set(tracer.LAYER_METRICS)


def test_self_time_clips_overlapping_children():
    spans = [
        _span(0, "a", 0.0, 4.0, None),
        _span(1, "b", 1.0, 3.0, 0),
        _span(2, "c", 2.0, 5.0, 0),  # overlaps b and ends after its parent
    ]
    assert tracer.self_times(spans)[0] == pytest.approx(1.0)


def _good_record(tag, check):
    return {"tag": tag, "status": 0, "exit_code": 0, "wall_s": 1.0, "setup_s": 0.5,
            "peak_rss_mb": 60.0, "check": check}


def test_failed_output_check_counts_in_error_rate(tmp_path):
    config = workloads.make_config("malliavin", seed=1)
    header = "t,x1,c,multi_index,mean_lhs,mean_rhs,var_lhs,var_rhs,zscore\n"
    good = "".join(f"{j / 32},0,0,0,0,0,0,0,0.5\n{j / 32},0.5,0,0,1,1,0,0,0.5\n"
                   for j in range(32))
    (tmp_path / "malliavin.csv").write_text(header + good)
    check = workloads.check_malliavin(config, str(tmp_path))
    assert check == {"verify_err": 0.5}

    (tmp_path / "malliavin.csv").write_text(header + good.replace("0.5\n", "4.5\n", 1))
    with pytest.raises(workloads.CheckFailed) as info:
        workloads.check_malliavin(config, str(tmp_path))
    bad = _good_record("run002", None)
    del bad["check"]
    bad["check_error"] = str(info.value)

    summary = run.summarize("malliavin", config, [], [_good_record("run001", check), bad])
    assert summary["attempted"] == 2
    assert summary["failed"] == 1
    assert summary["error_rate"] == 0.5
    assert any("max |z| = 4.5" in p for p in summary["problems"])


def test_inconsistent_verify_err_counts_as_a_failure():
    config = workloads.make_config("converge", seed=1)
    records = [_good_record("run001", {"verify_err": 1e-3}),
               _good_record("run002", {"verify_err": 2e-3})]
    summary = run.summarize("converge", config, [], records)
    assert summary["failed"] == 1
    assert summary["problems"] == ["verify_err differs between runs of one seed"]


def test_sample_steps_counts_base_solves_only():
    assert workloads.sample_steps("converge", workloads.make_config("converge", 0)) == 100000 * 60
    assert workloads.sample_steps("compare", workloads.make_config("compare", 0)) == 20000 * 120
    assert workloads.sample_steps("malliavin", workloads.make_config("malliavin", 0)) == 20000 * 32
    assert workloads.sample_steps("solve_export", workloads.make_config("solve_export", 0)) == 16000


def test_refuses_to_run_without_the_sources(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    here = os.path.dirname(RUN)
    for name in ("run.py", "worker.py", "tracer.py", "workloads.py", "workloads.json"):
        (bench / name).write_bytes(open(os.path.join(here, name), "rb").read())
    proc = subprocess.run([sys.executable, str(bench / "run.py"), "--workload", "converge"],
                          capture_output=True, text=True, cwd=tmp_path, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_benchmark_json_matches_the_code():
    path = os.path.join(os.path.dirname(os.path.dirname(RUN)), "BENCHMARK.json")
    with open(path) as fh:
        bench = json.load(fh)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == tracer.LAYER_METRICS
    assert {w["name"]: w["why"] for w in bench["workloads"]} == {
        name: w["why"] for name, w in workloads.WORKLOADS.items()
    }
    setup = next(m for m in bench["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in bench["end_to_end"])
