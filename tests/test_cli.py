"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main
from repro.errors import ConfigurationError


def test_no_command_prints_help_and_fails(capsys):
    assert main([]) == 1
    captured = capsys.readouterr()
    assert "usage" in captured.out.lower()


def test_version_flag():
    with pytest.raises(SystemExit) as excinfo:
        main(["--version"])
    assert excinfo.value.code == 0


def test_list_protocols(capsys):
    assert main(["list-protocols"]) == 0
    captured = capsys.readouterr()
    assert "bfw" in captured.out
    assert "pipelined-ids" in captured.out


def test_run_command_converges(capsys):
    code = main(["run", "--protocol", "bfw", "--graph", "clique", "--n", "16", "--seed", "1"])
    captured = capsys.readouterr()
    assert code == 0
    assert "converged:         True" in captured.out


def test_run_command_nonuniform_with_probability_override(capsys):
    code = main(
        [
            "run",
            "--protocol",
            "bfw",
            "--graph",
            "path",
            "--n",
            "12",
            "--seed",
            "2",
            "--beep-probability",
            "0.25",
        ]
    )
    assert code == 0


def test_run_command_reports_nonconvergence(capsys):
    code = main(
        ["run", "--protocol", "bfw", "--graph", "path", "--n", "30", "--max-rounds", "3"]
    )
    captured = capsys.readouterr()
    assert code == 2
    assert "converged:         False" in captured.out


def test_scaling_command_small(capsys):
    code = main(
        ["scaling", "--mode", "nonuniform", "--diameters", "4", "8", "--seeds", "3"]
    )
    captured = capsys.readouterr()
    assert code == 0
    assert "fitted T ~ D^" in captured.out


def test_ablation_command_small(capsys):
    code = main(["ablation", "--diameter", "6", "--seeds", "2"])
    captured = capsys.readouterr()
    assert code == 0
    assert "Structural ablations" in captured.out


def test_wave_demo(capsys):
    code = main(["wave-demo", "--n", "12", "--seed", "1", "--max-rounds", "120"])
    captured = capsys.readouterr()
    assert code == 0
    assert "legend:" in captured.out


def test_parser_has_all_subcommands():
    parser = build_parser()
    text = parser.format_help()
    for command in (
        "list-protocols",
        "run",
        "table1",
        "scaling",
        "montecarlo",
        "crossover",
        "lower-bound",
        "ablation",
        "dynamic",
        "wave-demo",
    ):
        assert command in text


def test_scaling_batched_matches_looped(capsys):
    argv = ["scaling", "--mode", "nonuniform", "--diameters", "4", "8", "--seeds", "3"]
    assert main(argv) == 0
    looped = capsys.readouterr().out
    assert main(argv + ["--backend", "batched"]) == 0
    batched = capsys.readouterr().out
    assert looped == batched


def test_scaling_replicas_overrides_seeds(capsys):
    code = main(
        [
            "scaling",
            "--mode",
            "nonuniform",
            "--diameters",
            "4",
            "8",
            "--seeds",
            "999",
            "--replicas",
            "2",
            "--backend",
            "batched",
        ]
    )
    assert code == 0


def test_montecarlo_command(capsys, tmp_path):
    destination = tmp_path / "mc.json"
    code = main(
        [
            "montecarlo",
            "--protocol",
            "bfw",
            "--graph",
            "cycle",
            "--n",
            "24",
            "--replicas",
            "4",
            "--master-seed",
            "3",
            "--save-json",
            str(destination),
        ]
    )
    captured = capsys.readouterr()
    assert code == 0
    assert "Monte Carlo" in captured.out
    assert "batched" in captured.out
    payload = destination.read_text()
    assert '"converged": true' in payload


def test_montecarlo_reports_nonconvergence(capsys):
    code = main(
        ["montecarlo", "--graph", "path", "--n", "20", "--replicas", "3", "--max-rounds", "2"]
    )
    captured = capsys.readouterr()
    assert code == 2
    assert "per-seed" not in captured.out


def test_montecarlo_memory_baseline_runs_batched(capsys, tmp_path):
    destination = tmp_path / "mc-memory.json"
    code = main(
        [
            "montecarlo",
            "--protocol",
            "emek-keren",
            "--graph",
            "cycle",
            "--n",
            "12",
            "--replicas",
            "4",
            "--master-seed",
            "5",
            "--save-json",
            str(destination),
        ]
    )
    captured = capsys.readouterr()
    assert code == 0
    assert "batched" in captured.out
    assert "per-seed" not in captured.out
    # The batched memory engine records elected-node identities.
    assert "unknown" not in captured.out
    assert '"converged": true' in destination.read_text()


def test_montecarlo_standalone_runner_runs_batched(capsys):
    # pipelined-ids exposes a run_batch entry point, so its single cell now
    # reports the batched engine (and elected-leader identities) instead of
    # the per-seed loop it historically fell back to.
    code = main(
        [
            "montecarlo",
            "--protocol",
            "pipelined-ids",
            "--graph",
            "cycle",
            "--n",
            "10",
            "--replicas",
            "2",
            "--master-seed",
            "5",
        ]
    )
    captured = capsys.readouterr()
    assert code == 0
    assert "batched" in captured.out
    assert "unknown" not in captured.out


def test_montecarlo_shard_size_flag_is_byte_identical(capsys):
    code = main(
        ["montecarlo", "--n", "12", "--replicas", "4", "--master-seed", "5"]
    )
    reference = capsys.readouterr().out
    assert code == 0
    code = main(
        [
            "montecarlo",
            "--n",
            "12",
            "--replicas",
            "4",
            "--master-seed",
            "5",
            "--shard-size",
            "2",
        ]
    )
    sharded = capsys.readouterr().out
    assert code == 0

    def stable(text):
        # Drop the wall-clock dependent lines (elapsed, rounds/sec).
        return [
            line
            for line in text.splitlines()
            if "replica-rounds/sec" not in line
        ]

    assert stable(sharded) == stable(reference)


def test_table1_batched_end_to_end(capsys):
    # Exact batched-vs-looped table equality is covered at the API level on
    # small graphs (tests/experiments/test_tables.py); here the backend is
    # driven end-to-end through the CLI on the default graph set.
    code = main(["table1", "--seeds", "1", "--backend", "batched"])
    captured = capsys.readouterr()
    assert code == 0
    assert "Table 1" in captured.out
    assert "bfw-nonuniform" in captured.out


def test_lower_bound_batched_matches_looped(capsys):
    argv = ["lower-bound", "--diameters", "4", "8", "--seeds", "3"]
    assert main(argv) == 0
    looped = capsys.readouterr().out
    assert main(argv + ["--backend", "batched"]) == 0
    batched = capsys.readouterr().out
    assert looped == batched
    assert "conjectured exponent" in batched


def test_ablation_batched_matches_looped(capsys):
    argv = ["ablation", "--diameter", "6", "--seeds", "2"]
    assert main(argv) == 0
    looped = capsys.readouterr().out
    assert main(argv + ["--backend", "batched"]) == 0
    batched = capsys.readouterr().out
    assert looped == batched
    assert "Structural ablations" in batched


def test_montecarlo_sequential_backend_reports_loop_engine(capsys):
    code = main(
        [
            "montecarlo", "--protocol", "bfw", "--graph", "cycle", "--n", "16",
            "--replicas", "3", "--master-seed", "4", "--backend", "sequential",
        ]
    )
    captured = capsys.readouterr()
    assert code == 0
    assert "per-seed loop" in captured.out
    assert "unknown" in captured.out  # sequential runs carry no leader identities


def test_dynamic_command_small(capsys, tmp_path):
    destination = tmp_path / "dynamic.json"
    code = main(
        [
            "dynamic",
            "--families", "cycle",
            "--sizes", "12",
            "--churn-rates", "0", "2",
            "--seeds", "3",
            "--max-rounds", "2000",
            "--save-json", str(destination),
        ]
    )
    captured = capsys.readouterr()
    assert code == 0
    assert "Dynamic graphs" in captured.out
    assert "static" in captured.out
    assert "edge-churn" in captured.out
    assert destination.exists()

    from repro.experiments.io import load_records_json

    records = load_records_json(destination)
    assert len(records) == 6  # 2 rates x 3 seeds
    assert {record.graph.split("@")[0] for record in records} == {"cycle(12)"}


def test_dynamic_command_backend_invariance(capsys):
    args = [
        "dynamic",
        "--families", "cycle",
        "--sizes", "12",
        "--churn-rates", "1",
        "--seeds", "2",
        "--max-rounds", "1500",
    ]
    assert main(args + ["--backend", "sequential"]) == 0
    sequential = capsys.readouterr().out
    assert main(args + ["--backend", "batched"]) == 0
    batched = capsys.readouterr().out
    assert sequential == batched


def test_backend_flags_in_help():
    parser = build_parser()
    for command in ("table1", "scaling", "montecarlo", "crossover", "lower-bound", "ablation"):
        subparser_help = None
        for action in parser._actions:
            if hasattr(action, "choices") and action.choices and command in action.choices:
                subparser_help = action.choices[command].format_help()
        assert subparser_help is not None
        assert "--backend" in subparser_help
        assert "--workers" in subparser_help


def test_extinction_command_small(capsys, tmp_path):
    from repro.cli import main

    destination = tmp_path / "extinction.json"
    exit_code = main(
        [
            "extinction",
            "--families", "cycle",
            "--sizes", "12",
            "--churn-rates", "0", "2",
            "--seeds", "3",
            "--max-rounds", "1500",
            "--save-json", str(destination),
        ]
    )
    captured = capsys.readouterr()
    assert exit_code == 0
    assert "Leader extinction" in captured.out
    assert "E15" in captured.out
    assert "static" in captured.out
    assert destination.exists()
    import json

    payload = json.loads(destination.read_text())
    assert len(payload) == 6  # 2 cells x 3 seeds


def test_extinction_command_backend_invariance(capsys):
    from repro.cli import main

    args = [
        "extinction",
        "--families", "cycle",
        "--sizes", "12",
        "--churn-rates", "2",
        "--seeds", "3",
        "--max-rounds", "1000",
    ]
    assert main(args + ["--backend", "sequential"]) == 0
    sequential = capsys.readouterr().out
    assert main(args + ["--backend", "batched"]) == 0
    batched = capsys.readouterr().out
    assert sequential == batched


def test_workers_implies_process_backend(capsys):
    argv = [
        "lower-bound", "--diameters", "4", "8", "--seeds", "2", "--workers", "2",
    ]
    assert main(argv) == 0
    process_out = capsys.readouterr().out
    assert main(["lower-bound", "--diameters", "4", "8", "--seeds", "2"]) == 0
    assert capsys.readouterr().out == process_out


def test_workers_rejects_non_process_backends():
    with pytest.raises(ConfigurationError):
        main(
            [
                "scaling", "--mode", "nonuniform", "--diameters", "4",
                "--seeds", "1", "--backend", "batched", "--workers", "2",
            ]
        )


@pytest.mark.parametrize("command", ["table1", "scaling", "lower-bound", "ablation"])
def test_removed_batched_flag_is_a_usage_error(command, capsys):
    # --batched was an alias for --backend batched on these subcommands; it
    # is gone, so argparse rejects it like any other unknown option.
    with pytest.raises(SystemExit) as excinfo:
        main([command, "--batched"])
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert "usage:" in err
    assert "--batched" in err


def test_xp_kernel_spec_is_refused_before_any_run():
    with pytest.raises(ConfigurationError, match="unknown kernel"):
        main(
            [
                "lower-bound", "--diameters", "4", "--seeds", "1",
                "--kernel", "xp:numpy",
            ]
        )
