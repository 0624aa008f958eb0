"""Command-line interface: output files, exit codes, override precedence.

Every test drives run_cli() in process with a shrunken config so the
whole module stays fast; stdout/stderr go through capsys.
"""

import copy
import csv
import dataclasses
import json
import os
import resource
import subprocess
import sys
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
from dfedsim.config import AggregationMethod, ScenarioConfig, ScenarioKind, default_devices
from dfedsim.data import DatasetSchema
from dfedsim.errors import ConfigError
from dfedsim.scenarios import delay_sweep, run_scenario
from dfedsim.topology import Position

ROOT = Path(__file__).resolve().parent.parent

SMALL = {
    "rounds": 2,
    "seed": 0,
    "data": {
        "partition": {"samples_per_device": 150, "strategy": "coverage"},
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


def test_a_round_with_no_charges_writes_its_total_as_a_float(tmp_path):
    # no device reaches the base station, so no cluster forms and nothing
    # is charged; the cell is repr of a float, like every other energy cell
    slow = tuple(dataclasses.replace(d, bs_latency_s=0.5) for d in default_devices())
    fleet = config_to_dict(ScenarioConfig(kind=ScenarioKind.CVFL, devices=slow))["devices"]
    cfg = write_config(tmp_path, extra={"devices": fleet})
    out = tmp_path / "out"
    args = ["run", "--scenario", "dbfl_homogeneous", "--config", cfg, "--out", str(out)]
    assert run_cli(args) == 0
    rows = read_rows(out / "trace_dbfl_homogeneous.csv")
    assert [(r["total_energy"], r["per_node_energy_json"]) for r in rows] == [("0.0", "{}")] * 2


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


def test_compare_rejects_an_unsupported_kind_before_writing_anything(tmp_path, capsys):
    # retrain cannot aggregate dbfl_heterogeneous, the last kind compare runs
    cfg = write_config(tmp_path, extra={"aggregation": "retrain"})
    out = tmp_path / "out"
    assert run_cli(["compare", "--config", cfg, "--out", str(out)]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("dfedsim: config:")
    assert not out.exists() or not any(out.iterdir())


# ----------------------------------------------------------------- sweep


def test_sweep_writes_the_library_rows_in_order_and_ignores_jobs(tmp_path):
    cfg = write_config(tmp_path)
    plain, jobs = tmp_path / "s", tmp_path / "j"
    args = ["sweep", "--config", cfg, "--delay-sweep", "0.001,0.002"]
    assert run_cli(args + ["--out", str(plain)]) == 0
    # --jobs is still accepted, so older command lines keep their output
    assert run_cli(args + ["--out", str(jobs), "--jobs", "3"]) == 0
    assert (plain / "sweep.csv").read_bytes() == (jobs / "sweep.csv").read_bytes()

    text = (plain / "sweep.csv").read_text(encoding="utf-8")
    assert text.splitlines()[0] == SWEEP_HEADER
    # the command writes the library's sweep, floats as repr
    base = config_from_dict(dict(SMALL, kind="cvfl"))
    rows = delay_sweep(base, [0.001, 0.002])
    lines = [f"{delay!r},{kind.value},{total!r}" for delay, kind, total in rows]
    assert text == "".join(line + "\n" for line in [SWEEP_HEADER, *lines])
    rows = read_rows(plain / "sweep.csv")
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


def test_sweep_rejects_zero_jobs_with_one_line(tmp_path, capsys):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    assert run_cli(["sweep", "--config", cfg, "--jobs", "0", "--out", str(out)]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert lines == ["dfedsim: config: jobs must be >= 1"]
    assert not out.exists()


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
    # the file holds the rows the run would generate itself
    generated = tmp_path / "generated"
    assert run_cli(["run", "--scenario", "dbfl_homogeneous", "--config", cfg,
                    "--rounds", "1", "--out", str(generated)]) == 0
    trace = "trace_dbfl_homogeneous.csv"
    assert (out / trace).read_bytes() == (generated / trace).read_bytes()


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


def test_validate_notes_a_setting_another_kind_rejects(tmp_path, capsys):
    # run takes retrain for cvfl; compare and sweep also build dbfl_heterogeneous
    cfg = write_config(tmp_path, extra={"aggregation": "retrain"})
    assert run_cli(["validate", "--scenario", "cvfl", "--config", cfg]) == 0
    captured = capsys.readouterr()
    lines = captured.out.splitlines()
    assert len(lines) == 2 and lines[0].startswith("ok kind=cvfl")
    assert lines[1] == (
        "note: compare and sweep stop at config time: "
        "retrain aggregation does not support dbfl_heterogeneous"
    )
    assert captured.err == ""


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


MISTYPED = [
    ({"rounds": 2.5}, "config.rounds must be an integer"),
    ({"rounds": NAN}, "config.rounds must be an integer"),
    ({"hidden_units": 2.5}, "config.hidden_units must be an integer"),
    ({"batch_size": 7.5}, "config.batch_size must be an integer"),
    ({"seed": 1.5}, "config.seed must be an integer"),
    ({"seed": -1}, "seed must be >= 0"),
    # a bool is no integer here, although Python counts it as one
    ({"local_epochs": True}, "config.local_epochs must be an integer"),
    ({"link": {"delay_per_meter_s": True}}, "config.link.delay_per_meter_s must be a finite"),
    ({"data": {"spread": NAN}}, "config.data.spread must be a finite number"),
    ({"kind": "nope"}, "config.kind must be one of: cvfl, dbfl_homogeneous"),
    ({"aggregation": "nope"}, "config.aggregation must be one of: weighted, adaptive"),
    ({"devices": {"id": 0}}, "config.devices must be a list"),
    ({"devices": [{"id": 0, "pos": {"x": 1.0, "y": "far"}}]},
     "config.devices[0].pos.y must be a finite number"),
    # keys a run would replace: the drawn cycles, the run seed, a connectable seed
    ({"energy": {"cycle": 0.3}}, "unknown key(s) under config.energy: cycle"),
    ({"cluster_policy": {"require_bs_member": False}},
     "unknown key(s) under config.cluster_policy: require_bs_member"),
    ({"data": {"partition": {"devices": 5, "seed": 3}}},
     "unknown key(s) under config.data.partition: seed"),
    # a partition count, when set, must be the fleet's
    ({"data": {"partition": {"devices": 2}}},
     "data.partition.devices is 2 but the fleet has 5 devices"),
    # values of the right type that crashed a run: -1 is the base station's
    # id, and the mobility clamp overflowed
    ({"devices": [{"id": -1, "pos": {"x": 1.0, "y": 1.0}}]}, "device ids must be >= 0"),
    ({"max_step_m": 1e155, "mobility_radius_m": 1e155},
     "max_step_m and mobility_radius_m must be <= 1e150"),
    # with a device near the float range in reach, cluster formation overflowed
    ({"link": {"max_transmission_time_s": 1e308}},
     "link range max_transmission_time_s / delay_per_meter_s must be <= 1e150 m"),
    # data plans whose run stopped at its first round: no training row left
    # after the probe split, a principal plane of one feature, one class, and
    # a sectors ring without its second latent coordinate
    ({"data": {"partition": {"samples_per_device": 1}}},
     "the probe split leaves a device no training row"),
    ({"data": {"partition": {"samples_per_device": 40}, "probe_fraction": 0.999}},
     "the probe split leaves a device no training row"),
    ({"data": {"schema": {"num_features": 1}, "subset_size": 1, "latent_dim": 1}},
     "the coverage partition needs num_features >= 2"),
    ({"data": {"schema": {"num_classes": 1}}}, "a classifier needs num_classes >= 2"),
    ({"data": {"latent_factors": 1}}, "the sectors task needs latent_factors >= 2"),
    # the adaptive weight search grows as C(19 + m, m - 1) in a level's members
    ({"aggregation": "adaptive",
      "devices": [{"id": i, "pos": {"x": 1.0 + i, "y": 1.0}} for i in range(7)]},
     "adaptive aggregation takes at most 6 devices, got 7"),
]


@pytest.mark.parametrize("extra, reason", MISTYPED, ids=[json.dumps(e) for e, _ in MISTYPED])
def test_mistyped_settings_exit_one_with_one_line(tmp_path, capsys, extra, reason):
    # the kind comes from the file, so a bad one is not overridden by --scenario
    cfg = write_config(tmp_path, extra={"kind": "cvfl", **extra})
    out = tmp_path / "out"
    code = run_cli(["run", "--config", cfg, "--out", str(out)])
    lines = capsys.readouterr().err.splitlines()
    assert code == 1
    assert len(lines) == 1 and lines[0].startswith("dfedsim: config:")
    assert reason in lines[0]
    assert not out.exists()
    # validate reads the file the same way, so it fails the same way
    assert run_cli(["validate", "--config", cfg]) == 1
    assert capsys.readouterr().err.splitlines() == lines


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


# 40 rows per device
BLOBS_40 = {
    "task": "blobs",
    "partition": {"samples_per_device": 40, "strategy": "coverage"},
    "test_samples": 40,
}


@pytest.mark.parametrize(
    "kind, extra",
    [
        ("cvfl", {"learning_rate": 1e308}),
        ("dbfl_heterogeneous", {"data": {**BLOBS_40, "ae_learning_rate": 1e308}}),
    ],
)
def test_diverging_training_exits_three_with_one_line(tmp_path, capsys, recwarn, kind, extra):
    # validate accepts each, and round 0 trains a network past the float range
    cfg = tmp_path / "config.json"
    config = {"kind": kind, "rounds": 1, "data": {**BLOBS_40, "ae_epochs": 1}, **extra}
    cfg.write_text(json.dumps(config), encoding="utf-8")
    assert run_cli(["validate", "--config", str(cfg)]) == 0
    capsys.readouterr()
    out = tmp_path / "out"
    assert run_cli(["run", "--config", str(cfg), "--out", str(out)]) == 3
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("dfedsim: runtime: training diverged:")
    # numpy's overflow warnings on the way there would print more lines
    assert [str(w.message) for w in recwarn] == []
    assert not out.exists()


@pytest.mark.parametrize("setting", ["spread", "center_scale"])
def test_generated_data_beyond_the_float_range_exits_one_with_one_line(
    tmp_path, capsys, recwarn, setting
):
    # validate accepts it, and building the dataset names the cause
    cfg = tmp_path / "config.json"
    config = {"kind": "cvfl", "rounds": 1, "data": {**BLOBS_40, setting: 1e308}}
    cfg.write_text(json.dumps(config), encoding="utf-8")
    assert run_cli(["validate", "--config", str(cfg)]) == 0
    capsys.readouterr()
    out = tmp_path / "out"
    assert run_cli(["run", "--config", str(cfg), "--out", str(out)]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("dfedsim: config: data.spread ")
    assert "data.center_scale" in lines[0]
    assert [str(w.message) for w in recwarn] == []
    assert not out.exists()


@pytest.mark.parametrize("cell", ["inf", "nan"])
def test_a_non_finite_csv_cell_exits_two_with_one_line(tmp_path, capsys, cell):
    schema = {"num_features": 3, "num_classes": 2}
    data = {"schema": schema, "subset_size": 3, "latent_dim": 2}
    cfg = write_config(tmp_path, extra={"kind": "cvfl", "data": data})
    path = tmp_path / "data.csv"
    path.write_text(f"f0,f1,f2,label\n1,2,3,a\n4,{cell},6,b\n", encoding="utf-8")
    out = tmp_path / "out"
    code = run_cli(["run", "--config", cfg, "--data", str(path), "--out", str(out)])
    lines = capsys.readouterr().err.splitlines()
    assert code == 2
    assert len(lines) == 1 and lines[0].startswith("dfedsim: data:")
    assert f"feature value '{cell}'" in lines[0] and "(row 3, column 1)" in lines[0]
    assert not out.exists()


def _fleet(size):
    return [{"id": i, "pos": {"x": 2.0 * i, "y": 5.0}} for i in range(size)]


def test_clustered_fleets_above_the_bound_exit_one_before_any_file(tmp_path, capsys):
    for kind in ("dbfl_homogeneous", "dbfl_heterogeneous"):
        cfg = write_config(tmp_path, extra={"kind": kind, "devices": _fleet(16)})
        assert run_cli(["validate", "--config", cfg]) == 0
        capsys.readouterr()
        cfg = write_config(tmp_path, extra={"kind": kind, "devices": _fleet(17)})
        assert run_cli(["validate", "--config", cfg]) == 1
        lines = capsys.readouterr().err.splitlines()
        assert lines == [
            f"dfedsim: config: {kind} takes at most 16 devices, got 17: "
            "cluster formation is exponential in the fleet"
        ]
    # cvfl forms no clusters, but compare also runs both dbfl kinds, and
    # validate says so after its ok line
    cfg = write_config(tmp_path, extra={"kind": "cvfl", "devices": _fleet(17)})
    assert run_cli(["validate", "--config", cfg]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2 and lines[0].startswith("ok kind=cvfl")
    assert lines[1] == (
        "note: compare and sweep stop at config time: dbfl_homogeneous takes at "
        "most 16 devices, got 17: cluster formation is exponential in the fleet"
    )
    out = tmp_path / "out"
    assert run_cli(["compare", "--config", cfg, "--out", str(out)]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("dfedsim: config: dbfl_homogeneous")
    assert not out.exists()


def _cap_address_space():
    # runs in the child only: an allocation past 3 GiB fails there at once
    resource.setrlimit(resource.RLIMIT_AS, (3 << 30, 3 << 30))


@pytest.mark.parametrize(
    "leaf, size",
    [
        # round 0 asks for a 20 GiB weight matrix
        ("hidden_units", 10**7),
        # the data build's first large array needs 4 to 21 GiB
        ("data.test_samples", 10**10),
        ("data.partition.samples_per_device", 10**9),
        ("data.latent_factors", 10**7),
    ],
)
def test_out_of_memory_exits_three_with_one_line(tmp_path, leaf, size):
    # validate accepts each of these sizes, and no config-time bound is set:
    # the allocation fails cleanly at run time instead
    cfg = tmp_path / "config.json"
    config = {"kind": "cvfl", "rounds": 1, "data": copy.deepcopy(BLOBS_40)}
    *parents, key = leaf.split(".")
    node = config
    for part in parents:
        node = node[part]
    node[key] = size
    cfg.write_text(json.dumps(config), encoding="utf-8")
    argv = ["run", "--config", str(cfg), "--out", str(tmp_path / "out")]
    result = subprocess.run(
        [sys.executable, "-c", "from dfedsim.cli import main; main()", *argv],
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src"), OPENBLAS_NUM_THREADS="1"),
        preexec_fn=_cap_address_space,
        capture_output=True,
        text=True,
        timeout=120,
    )
    lines = result.stderr.splitlines()
    assert result.returncode == 3, result.stderr
    assert len(lines) == 1 and lines[0].startswith("dfedsim: runtime: Unable to allocate")
    assert run_cli(["validate", "--config", str(cfg)]) == 0


def test_a_device_that_reaches_no_cluster_seed_is_isolated(tmp_path):
    # device 2 can reach neither the base station nor a connectable seed
    fleet = [
        {"id": 0, "pos": {"x": -12.0, "y": 16.0}, "bs_latency_s": 0.05},
        {"id": 1, "pos": {"x": 19.2, "y": 25.6}, "bs_latency_s": 0.08},
        {"id": 2, "pos": {"x": 500.0, "y": 500.0}, "bs_latency_s": 0.15},
    ]
    config = {"kind": "dbfl_homogeneous", "rounds": 2, "devices": fleet, "data": BLOBS_40}
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config), encoding="utf-8")
    out = tmp_path / "out"
    assert run_cli(["run", "--config", str(cfg), "--out", str(out)]) == 0
    rows = read_rows(out / "trace_dbfl_homogeneous.csv")
    assert [r["participants"] for r in rows] == ["0;1"] * 2
    for trace in run_scenario(config_from_dict(config)):
        (cluster,) = [c for c in trace.clusters.clusters if 2 in c.member_ids]
        assert cluster.member_ids == (2,) and not cluster.participating


# ---------------------------------------------------------- config mirror


# every field away from its default, so each decoder branch fills a value
NON_DEFAULT = {
    "devices": [
        {"id": 7, "pos": {"x": -3.5, "y": 4.0}, "mobile": True, "battery": 60.0,
         "bs_latency_s": 0.02},
        {"id": 9, "pos": {"x": 12.0, "y": -1.25}, "mobile": False, "battery": 99.5,
         "bs_latency_s": None},
    ],
    "rounds": 7,
    "link": {"max_transmission_time_s": 0.2, "delay_per_meter_s": 0.002},
    "cluster_policy": {"max_size": 4},
    "head_policy": {"reselect_interval_rounds": 3},
    "energy": {"attenuation": 3.0, "compute_coeff": 2e-4, "payload_scale": 2e-3},
    "data": {
        "schema": {"num_features": 40, "num_classes": 4, "label_column": 0},
        "partition": {"devices": 2, "samples_per_device": 100, "strategy": "iid"},
        "task": "blobs",
        "sectors": 12,
        "subset_size": 20,
        "latent_dim": 10,
        "spread": 0.75,
        "latent_factors": 8,
        "center_scale": 2.5,
        "test_samples": 100,
        "probe_fraction": 0.2,
        "ae_epochs": 3,
        "ae_learning_rate": 0.02,
        "csv_path": "data.csv",
    },
    "local_epochs": 2,
    "hidden_units": 16,
    "learning_rate": 0.05,
    "batch_size": 8,
    "max_step_m": 2.0,
    "mobility_radius_m": 20.0,
    "seed": 5,
}


def _leaves(value, path="config"):
    if isinstance(value, dict):
        for key, child in value.items():
            yield from _leaves(child, f"{path}.{key}")
    else:
        yield path, value


def test_config_round_trips_through_its_dict_form():
    for seed in range(3):
        config = config_from_dict({"kind": "dbfl_heterogeneous", "seed": seed})
        mirrored = config_from_dict(config_to_dict(config))
        assert mirrored == config
    defaults = dict(_leaves(config_to_dict(config_from_dict({"kind": "cvfl"}))))
    for path, value in _leaves(NON_DEFAULT):
        assert value != defaults[path], path
    for kind in ScenarioKind:
        for method in AggregationMethod:
            if (kind, method) == (ScenarioKind.DBFL_HETEROGENEOUS, AggregationMethod.RETRAINING):
                continue  # the one pairing ScenarioConfig rejects
            data = dict(NON_DEFAULT, kind=kind.value, aggregation=method.value)
            config = config_from_dict(data)
            # the dict forms alone would also match undecoded values
            assert config.kind is kind and config.aggregation is method
            assert config.devices[1].pos == Position(12.0, -1.25)
            assert config.data.schema == DatasetSchema(40, 4, label_column=0)
            assert config_to_dict(config) == data
            assert config_from_dict(config_to_dict(config)) == config


def test_a_partial_nested_object_keeps_its_fields_default():
    default = config_from_dict({"kind": "cvfl"}).data
    for partition in ({"samples_per_device": 40}, {"devices": 5, "samples_per_device": 40}):
        data = config_from_dict({"kind": "cvfl", "data": {"partition": partition}}).data
        assert data == dataclasses.replace(
            default, partition=dataclasses.replace(default.partition, **partition)
        )
        assert data.partition.strategy == "coverage"
    # the replaced object is checked like a new one
    for data in ({"partition": {"samples_per_device": 0}}, {"subset_size": 10}):
        with pytest.raises(ConfigError, match="config.data"):
            config_from_dict({"kind": "cvfl", "data": data})


def test_config_dict_spells_out_devices_and_enums():
    d = config_to_dict(config_from_dict({"kind": "cvfl"}))
    assert d["kind"] == "cvfl"
    assert d["aggregation"] == "weighted"
    assert len(d["devices"]) == 5
    assert set(d["devices"][0]) >= {"id", "pos", "mobile", "battery"}
