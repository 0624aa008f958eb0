"""Command-line interface: output files, exit codes, override precedence.

Every test drives run_cli() in process with a shrunken config so the
whole module stays fast; stdout/stderr go through capsys.
"""

import csv
import json
from pathlib import Path

import pytest

from dfedsim import __version__
from dfedsim.cli import (
    DEFAULT_SWEEP,
    SUMMARY_HEADER,
    SWEEP_HEADER,
    TRACE_HEADER,
    config_from_dict,
    config_to_dict,
    run_cli,
)
from dfedsim.scenarios import ScenarioConfig, ScenarioKind

SMALL = {
    "rounds": 2,
    "seed": 0,
    "data": {
        "partition": {"devices": 5, "samples_per_device": 150, "strategy": "coverage"},
        "test_samples": 300,
        "ae_epochs": 5,
    },
}


def write_config(tmp_path, extra=None):
    data = json.loads(json.dumps(SMALL))
    if extra:
        data.update(extra)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    return str(path)


def read_rows(path):
    with open(path, newline="", encoding="utf-8") as handle:
        return list(csv.DictReader(handle))


# ------------------------------------------------------------------- run


def test_run_writes_a_parseable_trace(tmp_path, capsys):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    assert run_cli(["run", "--scenario", "cvfl", "--config", cfg, "--out", str(out)]) == 0
    trace = out / "trace_cvfl.csv"
    assert trace.exists()
    header = trace.read_text(encoding="utf-8").splitlines()[0]
    assert header == TRACE_HEADER
    rows = read_rows(trace)
    assert [int(r["round"]) for r in rows] == [0, 1]
    for row in rows:
        assert row["scenario"] == "cvfl"
        assert 0.0 <= float(row["accuracy"]) <= 1.0
        assert row["participants"] == "0;1;2"
        per_node = json.loads(row["per_node_energy_json"])
        assert set(per_node) <= {"0", "1", "2", "3", "4"}
        assert sum(per_node[k] for k in sorted(per_node)) == float(row["total_energy"])
    assert "wrote" in capsys.readouterr().out


def test_run_zero_rounds_leaves_a_header_only_trace(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    args = ["run", "--scenario", "dbfl_homogeneous", "--config", cfg,
            "--rounds", "0", "--out", str(out)]
    assert run_cli(args) == 0
    text = (out / "trace_dbfl_homogeneous.csv").read_text(encoding="utf-8")
    assert text == TRACE_HEADER + "\n"


def test_run_manifest_records_the_resolved_config(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    run_cli(["run", "--scenario", "cvfl", "--config", cfg,
             "--rounds", "1", "--seed", "3", "--out", str(out)])
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["version"] == __version__
    assert manifest["seed"] == 3
    assert manifest["outputs"] == ["trace_cvfl.csv"]
    assert len(manifest["config_sha256"]) == 64
    assert int(manifest["config_sha256"], 16) >= 0
    # flags beat the file: the file said rounds=2 seed=0
    assert manifest["config"]["rounds"] == 1
    assert manifest["config"]["seed"] == 3
    rebuilt = config_from_dict(manifest["config"])
    assert isinstance(rebuilt, ScenarioConfig)
    assert config_to_dict(rebuilt) == manifest["config"]


# --------------------------------------------------------------- compare


def test_compare_writes_three_traces_and_a_summary(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    assert run_cli(["compare", "--config", cfg, "--out", str(out)]) == 0
    kinds = [k.value for k in ScenarioKind]
    for kind in kinds:
        assert (out / f"trace_{kind}.csv").exists()
    summary = out / "summary.csv"
    assert summary.read_text(encoding="utf-8").splitlines()[0] == SUMMARY_HEADER
    rows = read_rows(summary)
    assert [r["scenario"] for r in rows] == kinds
    for row in rows:
        assert 0.0 <= float(row["final_accuracy"]) <= 1.0
        assert float(row["total_energy"]) > 0.0


def test_compare_twice_is_byte_identical(tmp_path):
    cfg = write_config(tmp_path)
    first, second = tmp_path / "a", tmp_path / "b"
    assert run_cli(["compare", "--config", cfg, "--out", str(first)]) == 0
    assert run_cli(["compare", "--config", cfg, "--out", str(second)]) == 0
    names = [f"trace_{k.value}.csv" for k in ScenarioKind] + ["summary.csv"]
    for name in names:
        assert (first / name).read_bytes() == (second / name).read_bytes()


# ----------------------------------------------------------------- sweep


def test_sweep_rows_are_ordered_and_parallel_matches_serial(tmp_path):
    cfg = write_config(tmp_path)
    serial, parallel = tmp_path / "s", tmp_path / "p"
    args = ["sweep", "--config", cfg, "--delay-sweep", "0.001,0.002"]
    assert run_cli(args + ["--out", str(serial)]) == 0
    assert run_cli(args + ["--out", str(parallel), "--jobs", "3"]) == 0
    assert (serial / "sweep.csv").read_bytes() == (parallel / "sweep.csv").read_bytes()

    text = (serial / "sweep.csv").read_text(encoding="utf-8")
    assert text.splitlines()[0] == SWEEP_HEADER
    rows = read_rows(serial / "sweep.csv")
    kinds = [k.value for k in ScenarioKind]
    assert [r["delay_per_meter_s"] for r in rows] == ["0.001"] * 3 + ["0.002"] * 3
    assert [r["scenario"] for r in rows] == kinds * 2
    for row in rows:
        assert float(row["total_energy"]) > 0.0


def test_sweep_rejects_bad_delay_lists(tmp_path, capsys):
    cfg = write_config(tmp_path)
    for bad in ("abc", "0.001,-0.002", ""):
        code = run_cli(["sweep", "--config", cfg, "--delay-sweep", bad,
                        "--out", str(tmp_path / "out")])
        assert code == 1
        assert capsys.readouterr().err.startswith("dfedsim: config:")


def test_default_sweep_has_five_points():
    delays = [float(v) for v in DEFAULT_SWEEP.split(",")]
    assert len(delays) == 5
    assert delays == sorted(delays)


# ---------------------------------------------------- gen-data and validate


def test_gen_data_output_feeds_a_run(tmp_path):
    cfg = write_config(tmp_path)
    data_dir = tmp_path / "data"
    assert run_cli(["gen-data", "--config", cfg, "--out", str(data_dir)]) == 0
    dataset = data_dir / "dataset.csv"
    header = dataset.read_text(encoding="utf-8").splitlines()[0].split(",")
    assert len(header) == 275
    assert header[-1] == "label"
    # default sample count covers the partition plus the held-out pool
    assert len(dataset.read_text(encoding="utf-8").splitlines()) == 1 + 5 * 150 + 300

    out = tmp_path / "out"
    code = run_cli(["run", "--scenario", "dbfl_homogeneous", "--config", cfg,
                    "--data", str(dataset), "--rounds", "1", "--out", str(out)])
    assert code == 0
    assert len(read_rows(out / "trace_dbfl_homogeneous.csv")) == 1


def test_gen_data_honours_an_explicit_sample_count(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "data"
    assert run_cli(["gen-data", "--config", cfg, "--samples", "40",
                    "--out", str(out)]) == 0
    assert len((out / "dataset.csv").read_text(encoding="utf-8").splitlines()) == 41


def test_validate_prints_the_resolved_settings(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert run_cli(["validate", "--scenario", "dbfl_heterogeneous", "--config", cfg]) == 0
    line = capsys.readouterr().out.strip()
    assert line.startswith("ok kind=dbfl_heterogeneous rounds=2 seed=0 devices=5 sha256=")
    digest = line.rsplit("=", 1)[1]
    assert len(digest) == 12
    int(digest, 16)


def test_validate_digest_ignores_where_the_kind_came_from(tmp_path, capsys):
    flag_cfg = write_config(tmp_path)
    run_cli(["validate", "--scenario", "cvfl", "--config", flag_cfg])
    via_flag = capsys.readouterr().out
    file_cfg = write_config(tmp_path, extra={"kind": "cvfl"})
    run_cli(["validate", "--config", file_cfg])
    via_file = capsys.readouterr().out
    assert via_flag == via_file


# ------------------------------------------------------------- exit codes


def test_config_errors_exit_one(tmp_path, capsys):
    bad_json = tmp_path / "broken.json"
    bad_json.write_text("{not json", encoding="utf-8")
    unknown_key = tmp_path / "unknown.json"
    unknown_key.write_text(json.dumps({"bogus": 1}), encoding="utf-8")
    nested_unknown = tmp_path / "nested.json"
    nested_unknown.write_text(json.dumps({"data": {"bogus": 1}}), encoding="utf-8")
    device_keys = []
    for key in ("partition_id", "feature_dim"):  # fields the simulator never read
        path = tmp_path / f"device_{key}.json"
        device = {"id": 0, "pos": {"x": 1.0, "y": 1.0}, key: 1}
        path.write_text(json.dumps({"devices": [device]}), encoding="utf-8")
        device_keys.append(["run", "--scenario", "cvfl", "--config", str(path)])
    cases = device_keys + [
        ["run", "--scenario", "nope"],
        ["run", "--scenario", "cvfl", "--config", str(tmp_path / "absent.json")],
        ["run", "--scenario", "cvfl", "--config", str(bad_json)],
        ["run", "--scenario", "cvfl", "--config", str(unknown_key)],
        ["run", "--scenario", "cvfl", "--config", str(nested_unknown)],
        ["run", "--scenario", "cvfl", "--rounds", "-1"],
        ["run"],  # no scenario anywhere
        ["frobnicate"],
    ]
    for argv in cases:
        assert run_cli(argv) == 1, argv
        err = capsys.readouterr().err
        assert err.startswith("dfedsim: config:"), argv


def test_bad_training_hyperparameters_exit_one_with_one_line(tmp_path, capsys):
    # rejected while the config is built, before any round can fail
    for extra in (
        {"learning_rate": 0},
        {"learning_rate": -0.05},
        {"learning_rate": float("nan")},
        {"learning_rate": float("inf")},
        {"batch_size": 0},
    ):
        cfg = write_config(tmp_path, extra=extra)
        code = run_cli(["run", "--scenario", "cvfl", "--config", cfg,
                        "--out", str(tmp_path / "out")])
        assert code == 1, extra
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("dfedsim: config:"), extra


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize(
    "extra, argv",
    [
        ({"link": {"delay_per_meter_s": NAN}}, ["run", "--scenario", "cvfl"]),
        ({"link": {"max_transmission_time_s": NAN}}, ["run", "--scenario", "cvfl"]),
        # an infinite cutoff finished at one time; it is now rejected too
        ({"link": {"max_transmission_time_s": INF}}, ["run", "--scenario", "cvfl"]),
        ({"energy": {"attenuation": NAN}}, ["run", "--scenario", "cvfl"]),
        ({"energy": {"compute_coeff": NAN}}, ["run", "--scenario", "cvfl"]),
        ({"energy": {"payload_scale": INF}}, ["run", "--scenario", "cvfl"]),
        ({"max_step_m": NAN}, ["run", "--scenario", "dbfl_homogeneous"]),
        ({"mobility_radius_m": NAN}, ["run", "--scenario", "dbfl_homogeneous"]),
        (None, ["sweep", "--rounds", "1", "--delay-sweep", "nan"]),
        (None, ["sweep", "--rounds", "1", "--delay-sweep", "0.001,inf"]),
    ],
)
def test_non_finite_settings_exit_one_with_one_line(tmp_path, capsys, extra, argv):
    cfg = write_config(tmp_path, extra=extra)
    code = run_cli(argv + ["--config", cfg, "--out", str(tmp_path / "out")])
    lines = capsys.readouterr().err.splitlines()
    assert code == 1
    assert len(lines) == 1 and lines[0].startswith("dfedsim: config:")


def test_data_errors_exit_two(tmp_path, capsys):
    cfg = write_config(tmp_path)
    narrow = tmp_path / "narrow.csv"
    narrow.write_text("f0,label\n0.5,1\n", encoding="utf-8")
    for path in (tmp_path / "absent.csv", narrow):
        code = run_cli(["run", "--scenario", "cvfl", "--config", cfg,
                        "--data", str(path), "--out", str(tmp_path / "out")])
        assert code == 2
        assert capsys.readouterr().err.startswith("dfedsim: data:")


def test_runtime_errors_exit_three(tmp_path, capsys):
    cfg = write_config(tmp_path)
    blocker = tmp_path / "blocked"
    blocker.write_text("not a directory", encoding="utf-8")
    code = run_cli(["run", "--scenario", "cvfl", "--config", cfg, "--out", str(blocker)])
    assert code == 3
    assert capsys.readouterr().err.startswith("dfedsim: runtime:")


# ---------------------------------------------------------- config mirror


def test_config_round_trips_through_its_dict_form():
    for seed in range(3):
        config = config_from_dict({"kind": "dbfl_heterogeneous", "seed": seed})
        mirrored = config_from_dict(config_to_dict(config))
        assert mirrored == config


def test_config_dict_spells_out_devices_and_enums():
    d = config_to_dict(config_from_dict({"kind": "cvfl"}))
    assert d["kind"] == "cvfl"
    assert d["aggregation"] == "weighted"
    assert len(d["devices"]) == 5
    assert set(d["devices"][0]) >= {"id", "pos", "mobile", "battery"}
