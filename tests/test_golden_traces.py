"""Golden digests: trace files for every accepted aggregation method x
scenario, and network-plane records for every scenario on three fleets.

Each trace cell runs `dfedsim run` for two rounds on the small data plan
and fixes the sha256 of the trace CSV it writes, so a refactor of the
learning path (meta stacking, adaptive weights, pooled retraining, the
heterogeneous feature pipeline) that changes any trace byte fails here.
The benchmark's reference digests cover only weighted `compare`.

Each network cell plans 120 rounds with `plan_rounds` and fixes the
sha256 of a canonical text of every record field but the accuracy, so a
refactor of the scheduler that moves a participant, a link record or a
charge fails here. The cells reach what two rounds on the default fleet
do not: deaths, clusters that sit out once their head has died, the
refresh cadence, the round-0 autoencoder charge and CVFL's charges for
upload attempts that miss the cutoff.

The digests assume the numpy and OpenBLAS they were recorded with: numpy
2.4.6 and OpenBLAS 0.3.31 on x86-64, with one or two BLAS threads alike.
Another numpy or BLAS build may round differently and change the
accuracy column without any change to the program.
"""

import dataclasses
import hashlib
import json

import numpy as np
import pytest

from dfedsim.cli import config_to_dict, run_cli
from dfedsim.config import AggregationMethod, ScenarioConfig, ScenarioKind, default_devices
from dfedsim.data import DataPlan, PartitionPlan
from dfedsim.head_selection import HeadPolicy
from dfedsim.network import plan_rounds
from dfedsim.topology import DeviceNode, LinkModel, Position

SMALL_PLAN = DataPlan(
    partition=PartitionPlan(devices=5, samples_per_device=150, strategy="coverage"),
    test_samples=300,
    ae_epochs=5,
)

# (aggregation, scenario) -> sha256 of trace_<scenario>.csv; retrain x
# dbfl_heterogeneous is rejected at config time and has no trace
GOLDEN = {
    ("weighted", "cvfl"): "1f0cc6057bbfd56f33b866a60b915dbd1ca2d314930d2de97e3ca6b4d5451f56",
    ("weighted", "dbfl_homogeneous"): "0956ef772ef133bab8c38ea24385052316bd864b152c36590f435bda584f39ff",
    ("weighted", "dbfl_heterogeneous"): "5aa337971490c23b79e1c82009e6101dd7ef9380d828449cd9dcf113ed3c3e79",
    ("adaptive", "cvfl"): "183a18187440824f3dcb0051761d0ef13a5232f5281203c16293a701308afc11",
    ("adaptive", "dbfl_homogeneous"): "7e5b0cb82e97a2be75bb505eb1a4b21f05b9d0e768632dd2b667f39f27f734ea",
    ("adaptive", "dbfl_heterogeneous"): "07c90ec9cebd73538001bcaee46bd52ad45bbe62d5e4223e840750806c373aa2",
    ("meta", "cvfl"): "d856835ff343b448163439c7efab281d1170e1ec85c722713c72a7e8011c4b7e",
    ("meta", "dbfl_homogeneous"): "4e30acfe5725e1f5c4893202d5b9bcf13d8731773264279685ca6376ab8c7e9f",
    ("meta", "dbfl_heterogeneous"): "be06ff8222abc3fe919dcf696fd7d20a07c3277ad0959a16b26112c61b5576de",
    ("retrain", "cvfl"): "6f784e329a3f8166fa3eeab7f95e4e4dcd30f75a3b830be001922f83445ea9c1",
    ("retrain", "dbfl_homogeneous"): "05098aadf51328bb7a3c0fd529faccb5c7b1a43397826fed62bfe8c1493b7844",
}


@pytest.mark.parametrize("cell", sorted(GOLDEN), ids="-".join)
def test_trace_bytes_match_the_golden_digest(cell, tmp_path):
    method, kind = cell
    config = ScenarioConfig(
        kind=ScenarioKind(kind),
        aggregation=AggregationMethod(method),
        rounds=2,
        seed=0,
        data=SMALL_PLAN,
    )
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config_to_dict(config)), encoding="utf-8")
    out = tmp_path / "out"
    assert run_cli(["run", "--config", str(config_path), "--out", str(out)]) == 0
    trace = (out / f"trace_{kind}.csv").read_bytes()
    assert hashlib.sha256(trace).hexdigest() == GOLDEN[cell]


def test_golden_cells_are_every_accepted_combination():
    accepted = {
        (m.value, k.value)
        for m in AggregationMethod
        for k in ScenarioKind
        if not (
            m is AggregationMethod.RETRAINING and k is ScenarioKind.DBFL_HETEROGENEOUS
        )
    }
    assert set(GOLDEN) == accepted
    assert len(GOLDEN) == 11


# ------------------------------------------------------- network plane


def _mobile_fleet():
    """Eight devices, seven of them mobile, with batteries from 11.6 to 79.1
    and a manual base-station latency on either side of the 0.1 s cutoff
    or none."""
    rng = np.random.default_rng(8)
    return tuple(
        DeviceNode(
            i,
            Position(*np.round(rng.uniform(-60.0, 60.0, size=2), 1).tolist()),
            mobile=bool(rng.random() < 0.5),
            battery=round(float(rng.uniform(1.0, 100.0)), 1),
            bs_latency_s=[None, 0.05, 0.12][int(rng.integers(3))],
        )
        for i in range(8)
    )


NETWORK_FLEETS = {
    "default": default_devices(),
    "low-battery": tuple(
        dataclasses.replace(d, battery=0.555) if d.id == 2 else d for d in default_devices()
    ),
    "mobile-8": _mobile_fleet(),
}
# (delay per meter, head reselection interval in rounds)
NETWORK_LINKS = {"delay-1ms-every-5": (0.001, 5), "delay-3ms-every-1": (0.003, 1)}


def network_config(kind, fleet, link):
    delay, interval = NETWORK_LINKS[link]
    return ScenarioConfig(
        kind=ScenarioKind(kind),
        devices=NETWORK_FLEETS[fleet],
        rounds=120,
        link=LinkModel(delay_per_meter_s=delay),
        head_policy=HeadPolicy(reselect_interval_rounds=interval),
    )


def canonical_records(records):
    """Every field of every record but its accuracy, one record a line;
    dict fields in key order."""
    lines = []
    for record in records:
        values = []
        for field in dataclasses.fields(record):
            if field.name == "accuracy":
                continue
            value = getattr(record, field.name)
            if isinstance(value, dict):
                value = sorted(value.items())
            values.append(f"{field.name}={value!r}")
        lines.append(" ".join(values))
    return "\n".join(lines)


# (scenario, fleet, link) -> sha256 of canonical_records(plan_rounds(config))
NETWORK_GOLDEN = {
    ("cvfl", "default", "delay-1ms-every-5"): "8f7a3d9f17c97e2f39e18847e07a60e150d1594ccf1824ed266eb8a660c99d55",
    ("cvfl", "default", "delay-3ms-every-1"): "27b3527a206f63cbfd69115d907d9371523a88f2b0cca2321d86fc1fa623985e",
    ("cvfl", "low-battery", "delay-1ms-every-5"): "f55015859ca2a6d6a98b33eeb06d5bababb73bc769563391618493c882207699",
    ("cvfl", "low-battery", "delay-3ms-every-1"): "8f1fdeb25f35423accf537087e583edb65661ff587021388d49215928d99e5be",
    ("cvfl", "mobile-8", "delay-1ms-every-5"): "284cf98c96b349c475ad04da4aaaf98505e73ea4f86c4cf926c4f03932ffebcb",
    ("cvfl", "mobile-8", "delay-3ms-every-1"): "0925a865580220509ac4afbfa77041b06cf0c82772b971fecacff43ef7268207",
    ("dbfl_homogeneous", "default", "delay-1ms-every-5"): "b1ea27736e2a8d9583183f6736095895a612861f372cb0e93f5ccba95099b4fc",
    ("dbfl_homogeneous", "default", "delay-3ms-every-1"): "4e961e12ce3b7853d83cb2a46226c3edeab87338f6d0af1f5adbd2992aa782f0",
    ("dbfl_homogeneous", "low-battery", "delay-1ms-every-5"): "270c8b9594c1dbccab32a6c083065408eb9d9b23bde3213b40bb36ed165e6c0c",
    ("dbfl_homogeneous", "low-battery", "delay-3ms-every-1"): "ff327b7253057a9a126b9ba41a384c4e1ff9935f969855c2f871e2a3a05d274a",
    ("dbfl_homogeneous", "mobile-8", "delay-1ms-every-5"): "d7e6956c0a9449db6e3d5542dc01605845aacf3301efc6b5eeb9b6ba8f2366e5",
    ("dbfl_homogeneous", "mobile-8", "delay-3ms-every-1"): "b0a128a0f8e7807f3d57148b719e47f0d95715014644dad53fe1615c1562a81c",
    ("dbfl_heterogeneous", "default", "delay-1ms-every-5"): "baa8ff927ed5e9bb0e4d6842ea3d35f9ec48035bb9ff2c509900a923deb79989",
    ("dbfl_heterogeneous", "default", "delay-3ms-every-1"): "524dda234976f8ed4b9fa46048c851a3ef0a8d926db533e8b35d18c76d441f81",
    ("dbfl_heterogeneous", "low-battery", "delay-1ms-every-5"): "4ea465264734c1bd2b3025f01396709fbf17175466b438383c2bb8eb8d7147bf",
    ("dbfl_heterogeneous", "low-battery", "delay-3ms-every-1"): "573bd685a067688cf06e482d361fee7fe2f3e6f76456c6c2ca9672e369e627fc",
    ("dbfl_heterogeneous", "mobile-8", "delay-1ms-every-5"): "c78055343b7267003c8b2e5d3e1ad886fde65a7b46f7c276b609aee1bf294674",
    ("dbfl_heterogeneous", "mobile-8", "delay-3ms-every-1"): "1894ca73d219bd9556099d2376878b5a8ca8a096385ef92f4742897ad60fe32f",
}


@pytest.mark.parametrize("cell", sorted(NETWORK_GOLDEN), ids="-".join)
def test_network_records_match_the_golden_digest(cell):
    text = canonical_records(plan_rounds(network_config(*cell)))
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == NETWORK_GOLDEN[cell]


def test_network_cells_are_every_scenario_fleet_and_link():
    assert set(NETWORK_GOLDEN) == {
        (k.value, fleet, link)
        for k in ScenarioKind
        for fleet in NETWORK_FLEETS
        for link in NETWORK_LINKS
    }
