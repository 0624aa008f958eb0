"""The benchmark's own tests: every check can fail, and every workload passes.

    python3 -m pytest bench

Broken outputs are made by editing the files of a real small-data run, so
each test shows that a check rejects exactly the fault it is named for.
"""

import csv
import json
import shutil

import pytest

import checks
import run
from tracer import Tracer

PROGRAM = run.load_program()


def read_rows(path):
    with open(path, newline="", encoding="utf-8") as handle:
        return list(csv.DictReader(handle))


def write_rows(path, rows):
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.DictWriter(handle, fieldnames=list(rows[0]), lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """Output directories of one small-data invocation of each workload."""
    made = {}
    for name, workload in run.WORKLOADS.items():
        work = tmp_path_factory.mktemp(name)
        run.run_operation(PROGRAM, workload, seed=0, work=work, tiny=True)
        made[name] = work / "out"
    return made


@pytest.fixture
def broken(outputs, tmp_path):
    """A private copy of a workload's outputs to break."""
    def copy(name):
        target = tmp_path / name
        shutil.copytree(outputs[name], target)
        return target
    return copy


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_small_run_of_each_workload_passes_its_checks(name, tmp_path):
    workload = run.WORKLOADS[name]
    elapsed, found = run.run_operation(PROGRAM, workload, seed=1, work=tmp_path, tiny=True)
    assert elapsed > 0
    assert found and "manifest.json" not in found
    assert run.setup_seconds(PROGRAM, workload, seed=1, tiny=True) > 0


def test_same_seed_gives_the_same_digests(tmp_path):
    workload = run.WORKLOADS["compare"]
    _, first = run.run_operation(PROGRAM, workload, seed=2, work=tmp_path, tiny=True)
    _, again = run.run_operation(PROGRAM, workload, seed=2, work=tmp_path, tiny=True)
    assert first == again


def test_off_grid_charge_is_rejected(broken):
    out = broken("compare")
    path = out / "trace_dbfl_homogeneous.csv"
    rows = read_rows(path)
    charges = json.loads(rows[1]["per_node_energy_json"])
    node = sorted(charges)[0]
    charges[node] += checks.QUANTUM / 2
    rows[1]["per_node_energy_json"] = json.dumps(charges, sort_keys=True, separators=(",", ":"))
    write_rows(path, rows)
    with pytest.raises(checks.CheckFailed, match="off the 2\\*\\*-40 grid"):
        checks.check_compare(out)


def test_row_total_that_is_not_the_sum_of_its_charges_is_rejected(broken):
    out = broken("adaptive")
    path = out / "trace_dbfl_homogeneous.csv"
    rows = read_rows(path)
    rows[0]["total_energy"] = repr(float(rows[0]["total_energy"]) + checks.QUANTUM)
    write_rows(path, rows)
    with pytest.raises(checks.CheckFailed, match="sum of per-node charges"):
        checks.check_run(out)


def test_non_affine_cvfl_sweep_is_rejected(broken):
    out = broken("sweep")
    path = out / "sweep.csv"
    rows = read_rows(path)
    middle = sorted({float(r["delay_per_meter_s"]) for r in rows})[1]
    for row in rows:
        if row["scenario"] == "cvfl" and float(row["delay_per_meter_s"]) == middle:
            # still on the grid and still above dbfl_homogeneous
            row["total_energy"] = repr(float(row["total_energy"]) + 1024 * checks.QUANTUM)
    write_rows(path, rows)
    with pytest.raises(checks.CheckFailed, match="off the line through its neighbours"):
        checks.check_sweep(out)


def test_cvfl_participant_past_the_cutoff_is_rejected(broken):
    out = broken("compare")
    config = json.loads((out / "manifest.json").read_text(encoding="utf-8"))["config"][0]
    cutoff = config["link"]["max_transmission_time_s"]
    far = [d["id"] for d in config["devices"] if d["bs_latency_s"] > cutoff]
    assert far, "the default fleet has devices beyond the cutoff"
    path = out / "trace_cvfl.csv"
    rows = read_rows(path)
    ids = sorted({int(p) for p in rows[-1]["participants"].split(";")} | {far[0]})
    rows[-1]["participants"] = ";".join(map(str, ids))
    write_rows(path, rows)
    with pytest.raises(checks.CheckFailed, match="base-station cutoff"):
        checks.check_compare(out)


def test_accuracy_at_chance_is_rejected(broken):
    out = broken("compare")
    path = out / "trace_cvfl.csv"
    rows = read_rows(path)
    rows[-1]["accuracy"] = repr(1 / 9)
    write_rows(path, rows)
    with pytest.raises(checks.CheckFailed, match="not above chance"):
        checks.check_compare(out)


def test_summary_that_disagrees_with_its_trace_is_rejected(broken):
    out = broken("compare")
    path = out / "summary.csv"
    rows = read_rows(path)
    rows[0]["total_energy"] = repr(float(rows[0]["total_energy"]) + checks.QUANTUM)
    write_rows(path, rows)
    with pytest.raises(checks.CheckFailed, match="summed trace energy"):
        checks.check_compare(out)


def test_dbfl_round_zero_must_reach_beyond_cvfl(broken):
    out = broken("compare")
    cvfl = read_rows(out / "trace_cvfl.csv")
    path = out / "trace_dbfl_homogeneous.csv"
    rows = read_rows(path)
    rows[0]["participants"] = cvfl[0]["participants"]
    write_rows(path, rows)
    with pytest.raises(checks.CheckFailed, match="do not strictly contain"):
        checks.check_compare(out)


def test_tracer_counts_calls_and_restores_the_program(tmp_path):
    original = PROGRAM.scenarios.train_classifier
    tracer = Tracer()
    with tracer:
        assert PROGRAM.scenarios.train_classifier is not original
        run.run_operation(PROGRAM, run.WORKLOADS["adaptive"], seed=0, work=tmp_path, tiny=True)
    assert PROGRAM.scenarios.train_classifier is original
    values = run.layer_values(tracer.stats, tracer.wrapped)
    assert values["aggregation.adaptive_accuracy.calls"] > 0
    assert values["ml_core.loss_gradients.calls"] > 0
    calls, inclusive, self_time = tracer.stats["cli.run_cli"]
    assert calls == 1 and 0 < self_time < inclusive


def test_a_function_that_no_longer_exists_is_missing_not_zero():
    wrapped = {name for name, _ in run.PER_LAYER} - {"ml_core.cross_entropy"}
    values = run.layer_values({}, wrapped)
    assert "ml_core.cross_entropy.calls" not in values
    assert values["ml_core.loss_gradients.calls"] == 0
