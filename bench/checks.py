"""Output checks for the benchmark workloads.

Each check tests a property of the method, or agreement between two files
the program wrote, never a stored copy of an earlier run's numbers. The
config a check needs (fleet, batteries, link cutoff, class count) comes
from the `manifest.json` the program wrote next to its outputs. A failed
check raises `CheckFailed` naming the file, scenario and round.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

QUANTUM = 2.0 ** -40  # the energy ledger's bookkeeping grid
KINDS = ("cvfl", "dbfl_homogeneous", "dbfl_heterogeneous")


class CheckFailed(Exception):
    pass


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def _read_rows(path: Path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as handle:
        return list(csv.DictReader(handle))


def _participants(row: dict) -> set[int]:
    return {int(p) for p in row["participants"].split(";") if p}


def on_grid(value: float) -> bool:
    """True iff ``value`` is a whole multiple of the 2**-40 ledger grid."""
    # scaling by a power of two is exact, so this is an exact test
    return math.ldexp(value, 40).is_integer()


def quantized_battery(battery: float) -> float:
    return round(battery / QUANTUM) * QUANTUM


def cvfl_reachable(config: dict) -> set[int]:
    """Devices that can take part in a CVFL round at the start of a run.

    A device is in reach when its configured base-station latency clears
    the link cutoff and it does not start with an empty battery.
    """
    cutoff = config["link"]["max_transmission_time_s"]
    return {
        d["id"]
        for d in config["devices"]
        if d["bs_latency_s"] <= cutoff and quantized_battery(d["battery"]) > 0.0
    }


def check_trace(rows: list[dict], config: dict, label: str) -> None:
    """Ledger and accuracy properties of one trace file."""
    batteries = {d["id"]: quantized_battery(d["battery"]) for d in config["devices"]}
    spent = {node: 0.0 for node in batteries}
    for row in rows:
        where = f"{label} round {row['round']}"
        charges = {int(n): v for n, v in json.loads(row["per_node_energy_json"]).items()}
        for node, value in charges.items():
            _require(node in batteries, f"{where}: charge for unknown node {node}")
            _require(on_grid(value), f"{where}: charge {value!r} of node {node} is off the 2**-40 grid")
            spent[node] += value
        total = float(row["total_energy"])
        _require(
            total == math.fsum(charges.values()),
            f"{where}: total_energy {total!r} != sum of per-node charges {math.fsum(charges.values())!r}",
        )
        accuracy = float(row["accuracy"])
        _require(0.0 <= accuracy <= 1.0, f"{where}: accuracy {accuracy!r} outside [0, 1]")
    for node, total in spent.items():
        _require(
            total <= batteries[node],
            f"{label}: node {node} was charged {total!r}, above its starting battery {batteries[node]!r}",
        )
    chance = 1.0 / config["data"]["schema"]["num_classes"]
    _require(bool(rows), f"{label}: no rounds")
    final = float(rows[-1]["accuracy"])
    _require(final > chance, f"{label}: final accuracy {final!r} is not above chance {chance!r}")


def check_cvfl_participants(rows: list[dict], config: dict, label: str) -> None:
    reachable = cvfl_reachable(config)
    for row in rows:
        outside = _participants(row) - reachable
        _require(
            not outside,
            f"{label} round {row['round']}: participants {sorted(outside)} miss the "
            f"{config['link']['max_transmission_time_s']} s base-station cutoff",
        )


def check_reach(dbfl_rows: list[dict], cvfl_round0: set[int], label: str) -> None:
    """Round 0 of a cluster-routed run reaches strictly more devices than CVFL."""
    first = _participants(dbfl_rows[0])
    _require(
        first > cvfl_round0,
        f"{label} round 0: participants {sorted(first)} do not strictly contain "
        f"the CVFL participants {sorted(cvfl_round0)}",
    )


def check_compare(out: Path) -> None:
    """`dfedsim compare`: three traces, a summary, and their cross-checks."""
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    configs = {c["kind"]: c for c in manifest["config"]}
    _require(sorted(configs) == sorted(KINDS), f"manifest lists scenarios {sorted(configs)}")
    traces = {}
    for kind in KINDS:
        label = f"trace_{kind}.csv"
        traces[kind] = _read_rows(out / label)
        check_trace(traces[kind], configs[kind], label)
    check_cvfl_participants(traces["cvfl"], configs["cvfl"], "trace_cvfl.csv")
    cvfl_round0 = _participants(traces["cvfl"][0])
    for kind in KINDS[1:]:
        check_reach(traces[kind], cvfl_round0, f"trace_{kind}.csv")

    summary = {row["scenario"]: row for row in _read_rows(out / "summary.csv")}
    _require(sorted(summary) == sorted(KINDS), f"summary.csv lists {sorted(summary)}")
    for kind in KINDS:
        rows, row = traces[kind], summary[kind]
        last = float(rows[-1]["accuracy"])
        _require(
            float(row["final_accuracy"]) == last,
            f"summary.csv {kind}: final_accuracy {row['final_accuracy']} != last trace row {last!r}",
        )
        energy = math.fsum(float(r["total_energy"]) for r in rows)
        _require(
            float(row["total_energy"]) == energy,
            f"summary.csv {kind}: total_energy {row['total_energy']} != summed trace energy {energy!r}",
        )


def check_run(out: Path) -> None:
    """`dfedsim run` of one cluster-routed scenario."""
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    config = manifest["config"]
    label = f"trace_{config['kind']}.csv"
    rows = _read_rows(out / label)
    check_trace(rows, config, label)
    # in round 0, CVFL would hear exactly the devices the cutoff lets through
    check_reach(rows, cvfl_reachable(config), label)


def check_sweep_rows(rows: list[dict], config: dict) -> None:
    totals: dict[float, dict[str, float]] = {}
    for row in rows:
        totals.setdefault(float(row["delay_per_meter_s"]), {})[row["scenario"]] = float(
            row["total_energy"]
        )
    delays = sorted(totals)
    _require(len(delays) >= 3, f"sweep.csv has {len(delays)} delays; affinity needs three")
    for delay in delays:
        point = totals[delay]
        _require(sorted(point) == sorted(KINDS), f"sweep.csv delay {delay}: scenarios {sorted(point)}")
        for kind, total in point.items():
            _require(total > 0.0, f"sweep.csv delay {delay} {kind}: total {total!r} is not above 0")
            _require(on_grid(total), f"sweep.csv delay {delay} {kind}: total {total!r} is off the grid")
        _require(
            point["dbfl_homogeneous"] < point["cvfl"],
            f"sweep.csv delay {delay}: dbfl_homogeneous {point['dbfl_homogeneous']!r} "
            f"does not cost less than cvfl {point['cvfl']!r}",
        )
    # CVFL participation does not depend on the delay, while transmission
    # energy scales with it, so CVFL totals are affine in the delay up to
    # the rounding of each charge to the grid: every total sums at most
    # devices x rounds charges, each off by at most half a quantum, and
    # the interpolation residual weighs the middle total by 1 and its
    # neighbours by weights that sum to 1.
    charges = len(config["devices"]) * config["rounds"]
    tolerance = charges * QUANTUM
    cvfl = [totals[d]["cvfl"] for d in delays]
    for i in range(1, len(delays) - 1):
        lo, mid, hi = delays[i - 1], delays[i], delays[i + 1]
        share = (mid - lo) / (hi - lo)
        residual = cvfl[i] - (cvfl[i - 1] + share * (cvfl[i + 1] - cvfl[i - 1]))
        _require(
            abs(residual) <= tolerance,
            f"sweep.csv cvfl: total at delay {mid} is {residual!r} off the line through "
            f"its neighbours (tolerance {tolerance!r})",
        )


def check_sweep(out: Path) -> None:
    """`dfedsim sweep`: energy totals only."""
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    check_sweep_rows(_read_rows(out / "sweep.csv"), manifest["config"])
