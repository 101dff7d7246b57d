import json
import pathlib
import resource

import pytest

from bspde.cli import load_config, main


def write_config(path, **overrides):
    config = {
        "problem": {"name": "zero", "params": {"value": 7.0}},
        "partition": {"T": 1.0, "n0": 4, "edges": [1.0], "counts": [2]},
        "solver": {"samples": 20},
        "seed": 42,
    }
    for key, val in overrides.items():
        if val is None:
            config.pop(key, None)
        else:
            config[key] = val
    path.write_text(json.dumps(config))
    return path


def read(path):
    return path.read_bytes()


def test_solve_zero_exit_and_artifacts(tmp_path):
    cfg = write_config(tmp_path / "cfg.json")
    out = tmp_path / "out"
    assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 0
    assert (out / "solution_v.csv").exists()
    assert (out / "solution_vbar.csv").exists()
    assert (out / "manifest.json").exists()
    lines = (out / "solution_v.csv").read_text().splitlines()
    values = {line.rsplit(",", 1)[1] for line in lines[1:]}
    assert values == {"7"}
    resolved = json.loads((out / "resolved_config.json").read_text())
    assert resolved["solver"]["algorithm"] == "one"  # defaults materialized
    assert resolved["solver"]["estimator"]["kind"] == "analytic"
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["seed"] == 42
    assert "version" in manifest and "wall_time_s" in manifest
    # the peak RSS of this process at the time of writing, which the peak now bounds
    peak_now = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    assert 0 < manifest["peak_rss_mb"] <= peak_now
    stages = manifest["stage_s"]
    assert set(stages) == {"solve", "export"}
    assert min(stages.values()) >= 0
    assert stages["solve"] + stages["export"] <= manifest["wall_time_s"]


def test_rerunning_emitted_config_reproduces_artifacts(tmp_path):
    cfg = write_config(tmp_path / "cfg.json")
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["solve", "--config", str(cfg), "--out", str(out1)]) == 0
    echoed = out1 / "resolved_config.json"
    assert main(["solve", "--config", str(echoed), "--out", str(out2)]) == 0
    assert read(out1 / "solution_v.csv") == read(out2 / "solution_v.csv")
    assert read(out1 / "solution_vbar.csv") == read(out2 / "solution_vbar.csv")


def test_seed_override(tmp_path):
    cfg = write_config(
        tmp_path / "cfg.json",
        problem={"name": "martingale"},
        solver={"samples": 50},
    )
    out1, out2 = tmp_path / "s1", tmp_path / "s2"
    assert main(["solve", "--config", str(cfg), "--out", str(out1), "--seed", "1"]) == 0
    assert main(["solve", "--config", str(cfg), "--out", str(out2), "--seed", "2"]) == 0
    assert read(out1 / "solution_v.csv") != read(out2 / "solution_v.csv")
    assert json.loads((out1 / "resolved_config.json").read_text())["seed"] == 1


def test_missing_samples_is_config_error(tmp_path, capsys):
    cfg = write_config(tmp_path / "cfg.json", solver={"algorithm": "one"})
    assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "solver" in err and "samples" in err


def test_unknown_keys_rejected(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "problem": {"name": "zero"},
        "partition": {"T": 1.0, "n0": 2, "edges": [1.0], "counts": [1]},
        "solver": {"samples": 10},
        "surprise": True,
    }))
    assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2


@pytest.mark.parametrize("estimator", [{"kind": "nested"}, {"inner": 1000}])
def test_nested_estimator_is_config_error(tmp_path, capsys, estimator):
    cfg = write_config(tmp_path / "cfg.json", solver={"samples": 20, "estimator": estimator})
    out = tmp_path / "o"
    assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 2
    assert "estimator" in capsys.readouterr().err
    assert not list(tmp_path.rglob("*.csv"))


_LADDER = {"base": {"T": 1.0, "n0": 2, "edges": [1.0], "counts": [1]}, "levels": 3}


@pytest.mark.parametrize(
    "command, overrides, names",
    [
        # once passed the schema and then raised TypeError (exit 1) or ran silently
        ("solve", {"solver": {"samples": 50.0}}, "samples"),
        ("solve", {"partition": {"T": 1.0, "n0": 2.0, "edges": [1.0], "counts": [2]}}, "n0"),
        ("solve", {"partition": {"T": 1.0, "n0": 4, "edges": [1.0], "counts": [2.0]}}, "counts"),
        ("solve", {"solver": {"samples": 20, "M": 1.0}}, "M must be"),
        ("solve", {"solver": {"samples": 20, "estimator": {"degree": 2.0}}}, "degree"),
        ("solve", {"solver": {"samples": 20, "algorithm": "two", "fp_max_iters": 5.0}}, "fp_max_iters"),
        ("converge", {"partition": None, "ladder": {**_LADDER, "levels": 3.0}}, "ladder.levels"),
        # already refused by the schema
        ("solve", {"seed": True}, "seed"),
        ("solve", {"solver": {"samples": 20, "paper_literal_stencil": 1}}, "paper_literal_stencil"),
        ("solve", {"output": {"directory": 5}}, "output.directory"),
        ("solve", {"problem": {"name": "heat", "params": {"a": "x"}}}, "param a"),
        ("solve", {"problem": {"name": ["heat"]}}, "name"),
        ("solve", {"solver": [{"samples": 20}]}, "solver"),
        # once refused under the library field's name, record_coefficients
        ("solve", {"solver": {"samples": 20, "dump_coefficients": 1}}, "dump_coefficients"),
    ],
)
def test_value_the_library_cannot_use_is_config_error(tmp_path, monkeypatch, capsys, command, overrides, names):
    monkeypatch.chdir(tmp_path)  # no --out: output.directory is read from the config
    cfg = write_config(tmp_path / "cfg.json", **overrides)
    assert main([command, "--config", str(cfg)]) == 2
    assert names in capsys.readouterr().err
    assert not list(tmp_path.rglob("*.csv"))
    assert not (tmp_path / "out").exists()


def test_readme_config_example_is_its_own_echo(tmp_path):
    # every default the README shows is the one the dataclasses materialize
    readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text()
    example = readme.split("### Config format", 1)[1].split("```json", 1)[1].split("```", 1)[0]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(example)
    assert load_config(str(cfg)) == json.loads(example)


def test_problem_param_the_builtin_does_not_read_is_config_error(tmp_path, capsys):
    # a misspelt slope once ran silently as slope 0
    cfg = write_config(tmp_path / "cfg.json", problem={"name": "zero", "params": {"slpoe": 2.0}})
    assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert "'slpoe'" in capsys.readouterr().err
    assert not list(tmp_path.rglob("*.csv"))


def test_terminal_time_param_is_config_error(tmp_path, capsys):
    # the horizon comes from the grid alone: no built-in reads a terminal_time
    # param, not even one equal to the grid's T
    cfg = write_config(
        tmp_path / "cfg.json",
        problem={"name": "linear_scalar", "params": {"terminal_time": 1.0}},
        partition=None,
        ladder={"base": {"T": 1.0, "n0": 4, "edges": [0.02], "counts": [1]}, "levels": 3},
        solver={"samples": 100},
    )
    assert main(["converge", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert "'terminal_time'" in capsys.readouterr().err
    assert not list(tmp_path.rglob("*.csv"))


def test_partition_and_ladder_are_exclusive(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "problem": {"name": "zero"},
        "partition": {"T": 1.0, "n0": 2, "edges": [1.0], "counts": [1]},
        "ladder": {"base": {"T": 1.0, "n0": 2, "edges": [1.0], "counts": [1]}, "levels": 3},
        "solver": {"samples": 10},
    }))
    assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2


def test_missing_config_file(tmp_path):
    assert main(["solve", "--config", str(tmp_path / "none.json"), "--out", str(tmp_path)]) == 2


def test_fixed_point_failure_exits_three(tmp_path, capsys):
    cfg = write_config(
        tmp_path / "cfg.json",
        problem={"name": "linear_scalar"},
        partition={"T": 4.0, "n0": 2, "edges": [0.5], "counts": [1]},
        solver={"samples": 50, "algorithm": "two"},
    )
    assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 3
    assert "j0=" in capsys.readouterr().err


def test_converge_writes_csv_and_slope(tmp_path, capsys):
    cfg = write_config(
        tmp_path / "cfg.json",
        problem={"name": "linear_scalar"},
        partition=None,
        ladder={"base": {"T": 1.0, "n0": 4, "edges": [0.02], "counts": [1]}, "levels": 4},
        solver={"samples": 4000},
    )
    out = tmp_path / "out"
    assert main(["converge", "--config", str(cfg), "--out", str(out)]) == 0
    assert "slope" in capsys.readouterr().out
    lines = (out / "convergence.csv").read_text().splitlines()
    assert lines[0] == "mesh_size,err_V_sq,err_Vbar_sq,total,stderr_total,samples,seed,algorithm"
    assert len(lines) == 5


def test_converge_needs_three_levels(tmp_path):
    cfg = write_config(
        tmp_path / "cfg.json",
        problem={"name": "linear_scalar"},
        partition=None,
        ladder={"base": {"T": 1.0, "n0": 4, "edges": [0.02], "counts": [1]}, "levels": 2},
        solver={"samples": 1000},
    )
    assert main(["converge", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2


def test_converge_degenerate_zero_problem(tmp_path, capsys):
    cfg = write_config(
        tmp_path / "cfg.json",
        partition=None,
        ladder={"base": {"T": 1.0, "n0": 2, "edges": [0.1], "counts": [1]}, "levels": 3},
    )
    assert main(["converge", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
    assert "degenerate" in capsys.readouterr().out


def test_compare_single_partition(tmp_path, capsys):
    cfg = write_config(tmp_path / "cfg.json")
    out = tmp_path / "out"
    assert main(["compare", "--config", str(cfg), "--out", str(out)]) == 0
    lines = (out / "compare.csv").read_text().splitlines()
    assert len(lines) == 2 and lines[1].endswith("one-vs-two")
    assert "discrepancy" in capsys.readouterr().out


def test_check_malliavin_martingale(tmp_path, capsys):
    cfg = write_config(
        tmp_path / "cfg.json",
        problem={"name": "martingale"},
        partition={"T": 1.0, "n0": 4, "edges": [0.5], "counts": [1]},
        solver={"samples": 400},
    )
    out = tmp_path / "out"
    assert main(["check-malliavin", "--config", str(cfg), "--out", str(out)]) == 0
    assert "max |z| = 0.0000" in capsys.readouterr().out
    lines = (out / "malliavin.csv").read_text().splitlines()
    assert lines[0] == "t,x1,c,multi_index,mean_lhs,mean_rhs,var_lhs,var_rhs,zscore"
    assert len(lines) == 1 + 4 * 2  # grid times x grid points


def test_paper_literal_stencil_changes_results(tmp_path):
    base = dict(
        problem={"name": "heat", "params": {"a": 1.0}},
        partition={"T": 1.0, "n0": 1, "edges": [2.0], "counts": [2]},
        solver={"samples": 10},
    )
    cfg = write_config(tmp_path / "cfg.json", **base)
    out1, out2 = tmp_path / "plain", tmp_path / "literal"
    assert main(["solve", "--config", str(cfg), "--out", str(out1)]) == 0
    assert main(["solve", "--config", str(cfg), "--out", str(out2), "--paper-literal-stencil"]) == 0
    assert read(out1 / "solution_v.csv") != read(out2 / "solution_v.csv")
    resolved = json.loads((out2 / "resolved_config.json").read_text())
    assert resolved["solver"]["paper_literal_stencil"] is True


def test_coefficient_dump(tmp_path):
    cfg = write_config(
        tmp_path / "cfg.json",
        problem={"name": "martingale"},
        solver={"samples": 100, "dump_coefficients": True,
                "estimator": {"kind": "regression", "degree": 2}},
    )
    out = tmp_path / "out"
    assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 0
    lines = (out / "coefficients.csv").read_text().splitlines()
    assert lines[0] == "step,operation,component,multi_index,exponents,coefficient"
    assert len(lines) > 1


def test_coefficient_dump_labels_original_columns(tmp_path):
    # linear_scalar is identically zero at x = 0, so that column is constant
    # and unfitted; x = 0.5 and x = 1 keep their own column indices 1 and 2
    cfg = write_config(
        tmp_path / "cfg.json",
        problem={"name": "linear_scalar"},
        partition={"T": 1.0, "n0": 2, "edges": [1.0], "counts": [2]},
        solver={"samples": 50, "dump_coefficients": True},
    )
    out = tmp_path / "out"
    assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 0
    rows = [line.split(",") for line in (out / "coefficients.csv").read_text().splitlines()[1:]]
    assert {row[2] for row in rows} == {"1", "2"}
    for step in ("1", "2"):
        ops = [row[1] for row in rows if row[0] == step]
        # per column and monomial: one "mean" fit, two "dw" fits (V and drift)
        assert ops.count("mean") == 2 * 4 and ops.count("dw") == 2 * 2 * 4
