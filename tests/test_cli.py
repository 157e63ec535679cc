"""Command-line pipelines: artifacts, exit-status contract, config round-trip."""

import json

import pytest

from bipbc.cli import RunSpec, main, run


def test_runspec_roundtrip():
    spec = RunSpec(
        command="simulate",
        benchmark="ball-beam",
        params={"k_p": 5.0},
        dt=0.002,
        t_end=4.0,
        samples=300,
        mu=1e-5,
        seed=3,
        out="somewhere",
    )
    again = RunSpec.from_json(spec.to_json())
    assert again == spec


def test_runspec_rejects_bad_fields():
    with pytest.raises(ValueError):
        RunSpec(command="frobnicate", benchmark="ball-beam")
    with pytest.raises(ValueError):
        RunSpec(command="verify", benchmark="pendubot")
    with pytest.raises(ValueError):
        RunSpec.from_json('{"command": "verify", "benchmark": "ball-beam", "nope": 1}')
    with pytest.raises(ValueError):
        RunSpec.from_json("{not json")


def test_verify_writes_matching_and_exits_zero(tmp_path):
    code = run(RunSpec(command="verify", benchmark="ball-beam", samples=200,
                       out=str(tmp_path)))
    assert code == 0
    report = json.loads((tmp_path / "matching.json").read_text())
    assert report["report"]["kinetic_residual_max"] < 1e-6
    assert report["report"]["potential_residual_max"] < 1e-6
    assert report["report"]["equilibrium_ok"] is True


def test_bound_writes_constants_and_discrepancy_note(tmp_path):
    code = run(RunSpec(command="bound", benchmark="ball-beam", samples=300,
                       out=str(tmp_path)))
    assert code == 0
    constants = json.loads((tmp_path / "constants.json").read_text())
    assert constants["validation_violations"] == 0
    bounds = json.loads((tmp_path / "bounds.json").read_text())
    assert bounds["report"]["c_p1"] == pytest.approx(2.0, abs=0.05)
    ref = bounds["reference"]
    assert ref["effort_bound_from_reference_constants"] == pytest.approx(50.6, abs=0.1)
    assert ref["stated_effort_bound"] == 20.0
    assert "discrepancy" in ref["note"]


def test_simulate_writes_trajectory_and_summary(tmp_path):
    code = run(RunSpec(command="simulate", benchmark="ball-beam", dt=2e-3, t_end=4.0,
                       samples=200, out=str(tmp_path)))
    assert code == 0
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["exit_code"] == 0
    assert summary["hd_decrease_violations"] == 0
    assert summary["violations"]["momentum"] == 0
    assert summary["violations"]["control"] == 0
    assert summary["peak_tau_abs"][0] < 15.0
    header = (tmp_path / "trajectory.csv").read_text().splitlines()[0]
    assert header == "t,q_1,q_2,p_1,p_2,tau_1,H_d,norm_p,norm_ptilde,phase"
    assert (tmp_path / "bounds.json").exists()


def test_exit_status_contract_on_violation(tmp_path):
    # an artificially tiny energy budget must force nonzero exit
    code = run(RunSpec(command="simulate", benchmark="ball-beam", dt=2e-3, t_end=2.0,
                       samples=200, hd0=1e-3, out=str(tmp_path)))
    assert code == 1
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["violations"]["momentum"] > 0
    assert summary["exit_code"] == 1


def test_run_ending_early_exits_one(tmp_path):
    # a 0.8 s step carries the VTOL roll across the V_d barrier: the run
    # ends at its start state with no violation, and still exits 1
    code = run(RunSpec(command="simulate", benchmark="vtol-nonsmooth", dt=0.8, t_end=8.0,
                       samples=50, out=str(tmp_path)))
    assert code == 1
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert [kind for _, kind in summary["events"]] == ["domain_exit"]
    assert summary["hd_decrease_violations"] == 0
    assert summary["violations"]["momentum"] == 0 and summary["violations"]["control"] == 0
    assert summary["exit_code"] == 1


def test_benchmark_command_full_pipeline(tmp_path):
    code = run(RunSpec(command="benchmark", benchmark="ball-beam", dt=2e-3, t_end=3.0,
                       samples=200, out=str(tmp_path)))
    assert code == 0
    for name in ("matching.json", "constants.json", "bounds.json",
                 "trajectory.csv", "summary.json"):
        assert (tmp_path / name).exists()


def test_two_phase_summary_fields(tmp_path):
    code = run(RunSpec(command="simulate", benchmark="vtol-two-phase", dt=5e-3,
                       t_end=12.0, record_stride=5, samples=100, out=str(tmp_path)))
    assert code == 0
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["switch_time"] is not None
    assert summary["phase1_peak_tau1_dev"] <= 10.0
    assert summary["phase1_peak_tau2"] <= 10.0
    assert summary["phase2_violations"]["control"] == 0
    assert any(kind == "phase_switch" for _, kind in summary["events"])


def test_two_phase_run_without_switch_has_no_energy_check(tmp_path):
    # the run ends before the switch: the secondary design's H_d is not a
    # Lyapunov function over the primary phase and is not checked there
    code = run(RunSpec(command="simulate", benchmark="vtol-two-phase", dt=5e-3,
                       t_end=1.0, samples=50, out=str(tmp_path)))
    assert code == 0
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["switch_time"] is None and summary["events"] == []
    assert summary["hd_decrease_violations"] == 0
    assert summary["exit_code"] == 0


def test_main_cli_args(tmp_path, capsys):
    code = main(["verify", "--benchmark", "ball-beam", "--samples", "100",
                 "--out", str(tmp_path)])
    assert code == 0


def test_main_config_file(tmp_path):
    spec = RunSpec(command="verify", benchmark="ball-beam", samples=100,
                   out=str(tmp_path))
    cfg = tmp_path / "run.json"
    cfg.write_text(spec.to_json())
    assert main(["verify", "--config", str(cfg)]) == 0


def test_main_bad_config_exit2(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text('{"command": "verify", "benchmark": "nope"}')
    assert main(["verify", "--config", str(cfg)]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("config", [
    {"command": "verify", "benchmark": "ball-beam", "params": {"bogus": 1}},
    {"command": "verify", "benchmark": "vtol-nonsmooth", "params": {"epsilon": 1.5}},
    {"command": "verify"},
    {"command": "verify", "benchmark": "ball-beam", "record_stride": 0},
    {"command": "verify", "benchmark": "ball-beam", "dt": -1.0},
    {"command": "verify", "benchmark": "ball-beam", "t_end": 0.0},
    {"command": "verify", "benchmark": "ball-beam", "samples": 0},
])
def test_main_bad_config_values_exit2(config, tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({**config, "out": str(tmp_path)}))
    assert main(["verify", "--config", str(cfg)]) == 2
    assert "error:" in capsys.readouterr().err
