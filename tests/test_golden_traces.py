"""Golden trace digests for every accepted aggregation method x scenario.

Each cell runs `dfedsim run` for two rounds on the small data plan and
fixes the sha256 of the trace CSV it writes, so a refactor of the
learning path (meta stacking, adaptive weights, pooled retraining, the
heterogeneous feature pipeline) that changes any trace byte fails here.
The benchmark's reference digests cover only weighted `compare`.

The digests assume the numpy and OpenBLAS they were recorded with: numpy
2.4.6 and OpenBLAS 0.3.31 on x86-64, with one or two BLAS threads alike.
Another numpy or BLAS build may round differently and change the
accuracy column without any change to the program.
"""

import hashlib
import json

import pytest

from dfedsim.cli import config_to_dict, run_cli
from dfedsim.config import AggregationMethod, ScenarioConfig, ScenarioKind
from dfedsim.data import DataPlan, PartitionPlan

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
