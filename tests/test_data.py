"""CSV loading, synthetic generation, partitioning, feature subsets."""

import dataclasses

import numpy as np
import pytest

from dfedsim.data import (
    MAX_FEATURE_MAGNITUDE,
    DataPlan,
    DatasetSchema,
    DevicePartition,
    PartitionPlan,
    _feature_subsets,
    _generate,
    gen_ring_sectors,
    gen_synthetic,
    load_csv,
    partition,
    principal_plane_angles,
    write_csv,
)
from dfedsim.errors import ConfigError, EmptyDataset, ParseError, SchemaMismatch
from dfedsim.rngs import substream

SCHEMA3 = DatasetSchema(num_features=3, num_classes=3, label_column="label")


def write_file(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def test_load_small_well_formed_file(tmp_path):
    path = write_file(
        tmp_path,
        "f0,f1,f2,label\n1.0,2.0,3.0,cat\n4.0,5.0,6.0,ant\n7.0,8.0,9.0,bee\n",
    )
    x, y = load_csv(path, SCHEMA3)
    assert x.shape == (3, 3)
    assert np.array_equal(x[0], [1.0, 2.0, 3.0])
    # sorted label names: ant=0, bee=1, cat=2
    assert y.tolist() == [2, 0, 1]


def test_load_is_deterministic(tmp_path):
    path = write_file(tmp_path, "f0,f1,f2,label\n1,2,3,a\n4,5,6,b\n")
    x1, y1 = load_csv(path, SCHEMA3)
    x2, y2 = load_csv(path, SCHEMA3)
    assert np.array_equal(x1, x2)
    assert np.array_equal(y1, y2)


def test_non_numeric_cell_reports_row_and_column(tmp_path):
    path = write_file(tmp_path, "f0,f1,f2,label\n1,2,3,a\n1,oops,3,b\n")
    with pytest.raises(ParseError) as err:
        load_csv(path, SCHEMA3)
    assert err.value.row == 3
    assert err.value.column == 1
    assert "row 3" in str(err.value)


@pytest.mark.parametrize("cell", ["inf", "-inf", "nan", "1e151"])
def test_a_feature_beyond_the_float_range_is_a_parse_error(tmp_path, cell):
    # feature scales and the principal-plane covariance square every value
    path = write_file(tmp_path, f"f0,f1,f2,label\n1,2,3,a\n1,2,{cell},b\n")
    with pytest.raises(ParseError, match=f"feature value '{cell}'") as err:
        load_csv(path, SCHEMA3)
    assert (err.value.row, err.value.column) == (3, 2)


def test_the_largest_accepted_feature_loads(tmp_path):
    path = write_file(tmp_path, "f0,f1,f2,label\n1e150,-1e150,0,a\n")
    x, _ = load_csv(path, SCHEMA3)
    assert x.tolist() == [[1e150, -1e150, 0.0]]


@pytest.mark.parametrize("task", ["blobs", "sectors"])
@pytest.mark.parametrize("setting", ["spread", "center_scale"])
def test_generated_data_beyond_the_float_range_is_a_config_error(task, setting):
    plan = DataPlan(
        schema=DatasetSchema(num_features=6, num_classes=3), task=task, sectors=6,
        subset_size=4, latent_dim=2, **{setting: 1e308},
    )
    with pytest.raises(ConfigError, match="data.spread .* and data.center_scale"):
        _generate(plan, 30, seed=0)
    # the cutoff is on the features, and a merely large spread passes
    features, _ = _generate(dataclasses.replace(plan, **{setting: 1e100}), 30, seed=0)
    assert np.abs(features).max() <= MAX_FEATURE_MAGNITUDE


def test_ragged_row_is_a_parse_error(tmp_path):
    path = write_file(tmp_path, "f0,f1,f2,label\n1,2,3\n")
    with pytest.raises(ParseError) as err:
        load_csv(path, SCHEMA3)
    assert err.value.row == 2


def test_header_width_mismatch(tmp_path):
    path = write_file(tmp_path, "f0,f1,label\n1,2,a\n")
    with pytest.raises(SchemaMismatch):
        load_csv(path, SCHEMA3)


def test_missing_label_column(tmp_path):
    path = write_file(tmp_path, "f0,f1,f2,target\n1,2,3,a\n")
    with pytest.raises(SchemaMismatch):
        load_csv(path, SCHEMA3)


def test_label_column_by_index(tmp_path):
    path = write_file(tmp_path, "label,f0,f1,f2\na,1,2,3\n")
    schema = DatasetSchema(num_features=3, num_classes=3, label_column=0)
    x, y = load_csv(path, schema)
    assert np.array_equal(x, [[1.0, 2.0, 3.0]])
    assert y.tolist() == [0]


def test_too_many_distinct_labels(tmp_path):
    path = write_file(tmp_path, "f0,f1,f2,label\n1,2,3,a\n1,2,3,b\n1,2,3,c\n1,2,3,d\n")
    with pytest.raises(SchemaMismatch):
        load_csv(path, SCHEMA3)


def test_empty_file_and_headerless_file(tmp_path):
    with pytest.raises(ParseError):
        load_csv(write_file(tmp_path, ""), SCHEMA3)
    with pytest.raises(EmptyDataset):
        load_csv(write_file(tmp_path, "f0,f1,f2,label\n"), SCHEMA3)


def test_write_then_load_round_trip(tmp_path):
    schema = DatasetSchema(num_features=4, num_classes=5)
    x, y = gen_synthetic(schema, samples=50, seed=77)
    path = tmp_path / "gen.csv"
    write_csv(path, x, y, schema)
    x2, y2 = load_csv(path, schema)
    assert np.array_equal(x, x2)  # repr round-trips doubles exactly
    assert np.array_equal(y, y2)


def test_synthetic_determinism():
    schema = DatasetSchema(num_features=10, num_classes=4)
    a = gen_synthetic(schema, samples=120, seed=5)
    b = gen_synthetic(schema, samples=120, seed=5)
    assert np.array_equal(a[0], b[0])
    assert np.array_equal(a[1], b[1])
    c = gen_synthetic(schema, samples=120, seed=6)
    assert not np.array_equal(a[0], c[0])


def test_synthetic_balanced_counts():
    schema = DatasetSchema(num_features=6, num_classes=9)
    _, y = gen_synthetic(schema, samples=9000, seed=1)
    counts = np.bincount(y, minlength=9)
    assert counts.tolist() == [1000] * 9


def test_synthetic_zero_spread_nearest_centroid_is_perfect():
    schema = DatasetSchema(num_features=8, num_classes=5)
    x, y = gen_synthetic(schema, samples=500, seed=3, spread=0.0)
    centroids = np.stack([x[y == k].mean(axis=0) for k in range(5)])
    d = ((x[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
    assert np.mean(d.argmin(axis=1) == y) == 1.0


def test_partition_disjoint_when_enough_samples():
    schema = DatasetSchema(num_features=5, num_classes=3)
    x, y = gen_synthetic(schema, samples=600, seed=8)
    x = np.ascontiguousarray(x)
    x[:, 0] = np.arange(600)  # tag rows so overlap is detectable
    parts = partition(x, y, PartitionPlan(devices=4, samples_per_device=150), 2)
    assert len(parts) == 4
    tags = np.concatenate([p.features[:, 0] for p in parts])
    assert len(set(tags.tolist())) == 600


def test_partition_single_device_full_size_is_a_permutation():
    x = np.arange(30, dtype=float).reshape(10, 3)
    y = np.arange(10)
    parts = partition(x, y, PartitionPlan(devices=1, samples_per_device=10), 4)
    assert sorted(parts[0].features[:, 0].tolist()) == sorted(x[:, 0].tolist())
    assert sorted(parts[0].labels.tolist()) == sorted(y.tolist())


def test_partition_falls_back_to_replacement():
    x = np.stack([np.arange(10.0), np.zeros(10)], axis=1)  # column 0 tags rows
    y = np.zeros(10, dtype=int)
    parts = partition(x, y, PartitionPlan(devices=3, samples_per_device=8), 1)
    assert all(p.features.shape == (8, 2) for p in parts)
    # 24 draws from 10 rows, each one a row of the pool
    tags = np.concatenate([p.features[:, 0] for p in parts])
    assert set(tags.tolist()) <= set(range(10))


def test_partition_class_proportions_stay_close():
    """IID sampling keeps per-device class shares within 5 points of global."""
    schema = DatasetSchema(num_features=4, num_classes=9)
    x, y = gen_synthetic(schema, samples=18000, seed=10)
    global_props = np.bincount(y, minlength=9) / len(y)
    worst = 0.0
    for seed in range(100):
        parts = partition(x, y, PartitionPlan(devices=5, samples_per_device=3500), seed)
        for p in parts:
            props = np.bincount(p.labels, minlength=9) / len(p.labels)
            worst = max(worst, float(np.max(np.abs(props - global_props))))
    assert worst <= 0.05


def test_partition_determinism():
    x = np.random.default_rng(11).normal(size=(100, 3))
    y = np.random.default_rng(12).integers(0, 3, 100)
    plan = PartitionPlan(devices=3, samples_per_device=20)
    a = partition(x, y, plan, 9)
    b = partition(x, y, plan, 9)
    for pa, pb in zip(a, b):
        assert np.array_equal(pa.features, pb.features)
        assert np.array_equal(pa.labels, pb.labels)


def test_feature_subsets_draw_distinct_in_range_columns_from_the_seed():
    subsets = _feature_subsets(274, devices=5, subset_size=50, seed=42)
    assert len(subsets) == 5
    for row in subsets:
        assert len(row) == 50
        assert len(set(row)) == 50
        assert all(type(i) is int and 0 <= i < 274 for i in row)
    assert subsets == _feature_subsets(274, devices=5, subset_size=50, seed=42)
    assert subsets != _feature_subsets(274, devices=5, subset_size=50, seed=43)
    # every column when the subset is the whole schema
    assert all(sorted(r) == list(range(6)) for r in _feature_subsets(6, 3, 6, seed=1))


def test_plan_validation():
    with pytest.raises(ValueError):
        PartitionPlan(devices=0)
    with pytest.raises(ValueError):
        PartitionPlan(devices=1, strategy="dirichlet")
    with pytest.raises(ValueError):
        DatasetSchema(num_features=0, num_classes=2)
    # a plan without a count takes the fleet's, so only a run can partition it
    x, y = np.arange(30, dtype=float).reshape(10, 3), np.arange(10)
    with pytest.raises(ValueError, match="names no device count"):
        partition(x, y, PartitionPlan(samples_per_device=2), 0)


def test_ring_sectors_shapes_and_label_range():
    schema = DatasetSchema(num_features=20, num_classes=9)
    x, y = gen_ring_sectors(schema, samples=4000, seed=5)
    assert x.shape == (4000, 20)
    assert y.shape == (4000,)
    assert y.min() >= 0 and y.max() < 9
    counts = np.bincount(y, minlength=9)
    # every class owns sectors/classes equal-measure sectors of the ring
    assert counts.min() > 0.7 * 4000 / 9
    assert counts.max() < 1.3 * 4000 / 9


def test_ring_sectors_determinism_and_seed_sensitivity():
    schema = DatasetSchema(num_features=12, num_classes=4)
    a = gen_ring_sectors(schema, samples=300, seed=21, sectors=8)
    b = gen_ring_sectors(schema, samples=300, seed=21, sectors=8)
    c = gen_ring_sectors(schema, samples=300, seed=22, sectors=8)
    assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])
    assert not np.array_equal(a[0], c[0])


def test_ring_sectors_matches_replayed_construction():
    """Replay the generator's RNG stream and rebuild labels and features
    from the documented formulas; both must match exactly."""
    from dfedsim.rngs import substream

    schema = DatasetSchema(num_features=16, num_classes=5)
    samples, seed, sectors = 1500, 9, 10
    spread, factors, scale = 0.25, 12, 4.0
    x, y = gen_ring_sectors(
        schema, samples, seed, sectors=sectors, spread=spread,
        latent_factors=factors, center_scale=scale,
    )
    rng = substream(seed, "synthetic-data")
    projection = rng.normal(size=(factors, 16)) / np.sqrt(factors)
    theta = rng.uniform(0.0, 2.0 * np.pi, size=samples)
    radius = 2.0 + 1.0 * np.abs(rng.normal(size=samples))
    latent = np.zeros((samples, factors))
    latent[:, 0] = scale * radius * np.cos(theta)
    latent[:, 1] = scale * radius * np.sin(theta)
    latent[:, 2:] = rng.normal(size=(samples, factors - 2))
    labels = np.floor(theta / (2.0 * np.pi / sectors)).astype(np.int64) % 5
    feats = latent @ projection + spread * rng.normal(size=(samples, 16))
    assert np.array_equal(y, labels)
    assert np.array_equal(x, feats)


def test_ring_sectors_validation():
    schema = DatasetSchema(num_features=8, num_classes=6)
    with pytest.raises(ValueError):
        gen_ring_sectors(schema, samples=0, seed=0)
    with pytest.raises(ValueError):
        gen_ring_sectors(schema, samples=10, seed=0, sectors=5)
    with pytest.raises(ValueError):
        gen_ring_sectors(schema, samples=10, seed=0, spread=-1.0)
    with pytest.raises(ValueError):
        gen_ring_sectors(schema, samples=10, seed=0, latent_factors=1)


def test_coverage_partition_disjoint_and_sized():
    schema = DatasetSchema(num_features=10, num_classes=3)
    x, y = gen_ring_sectors(schema, samples=2000, seed=14, sectors=6)
    x = np.ascontiguousarray(x)
    x[:, 0] = np.arange(2000)  # tag rows so overlap is detectable
    plan = PartitionPlan(devices=4, samples_per_device=300, strategy="coverage")
    parts = partition(x, y, plan, 3)
    tags = np.concatenate([p.features[:, 0] for p in parts])
    assert len(tags) == 1200
    assert len(set(tags.tolist())) == 1200


def test_coverage_partition_rows_stay_inside_a_half_circle():
    """Each device's rows must fit one 180-degree window of the plane."""
    rng = np.random.default_rng(33)
    theta = rng.uniform(0, 2 * np.pi, size=3000)
    x = np.zeros((3000, 6))
    x[:, 0] = 10.0 * np.cos(theta)
    x[:, 1] = 10.0 * np.sin(theta)
    x[:, 2:] = 0.01 * rng.normal(size=(3000, 4))
    y = np.zeros(3000, dtype=int)
    plan = PartitionPlan(devices=5, samples_per_device=400, strategy="coverage")
    parts = partition(x, y, plan, 6)
    for p in parts:
        a = np.sort(np.arctan2(p.features[:, 1], p.features[:, 0]))
        gaps = np.diff(np.concatenate([a, [a[0] + 2 * np.pi]]))
        # a half-circle arc occupies a circular span of about pi; points
        # spread over the whole circle would leave no gap anywhere near pi
        span = 2 * np.pi - gaps.max()
        assert span <= np.pi + 0.1


def test_coverage_partition_determinism():
    schema = DatasetSchema(num_features=7, num_classes=3)
    x, y = gen_ring_sectors(schema, samples=900, seed=17, sectors=6)
    plan = PartitionPlan(devices=3, samples_per_device=250, strategy="coverage")
    a = partition(x, y, plan, 11)
    b = partition(x, y, plan, 11)
    for pa, pb in zip(a, b):
        assert np.array_equal(pa.features, pb.features)
        assert np.array_equal(pa.labels, pb.labels)


def test_coverage_partition_tops_up_with_replacement_when_starved():
    rng = np.random.default_rng(40)
    x = rng.normal(size=(50, 4))
    y = np.zeros(50, dtype=int)
    plan = PartitionPlan(devices=4, samples_per_device=40, strategy="coverage")
    parts = partition(x, y, plan, 2)
    assert all(p.features.shape == (40, 4) for p in parts)
    # 160 rows from a pool of 50: some device repeats a row
    assert any(len(np.unique(p.features, axis=0)) < 40 for p in parts)


def coverage_partition_oracle(x, y, plan, seed):
    """The per-row coverage loop as it stood before the arc patterns were
    precomputed, kept verbatim as the reference (the seed now comes apart
    from the plan)."""
    rng = substream(seed, "partition")
    out = []
    angles = principal_plane_angles(x)
    width = np.pi
    in_arc = np.stack(
        [
            np.mod(angles - (-np.pi + 2.0 * np.pi * d / plan.devices), 2.0 * np.pi)
            < width
            for d in range(plan.devices)
        ]
    )
    quota = [plan.samples_per_device] * plan.devices
    chosen: list[list[int]] = [[] for _ in range(plan.devices)]
    for i in rng.permutation(x.shape[0]):
        eligible = [d for d in range(plan.devices) if in_arc[d, i] and quota[d] > 0]
        if not eligible:
            continue
        # hand the row to the hungriest eligible device (ties: lower id)
        d = max(eligible, key=lambda dd: (quota[dd], -dd))
        chosen[d].append(int(i))
        quota[d] -= 1
    for d in range(plan.devices):
        replace = quota[d] > 0
        if replace:
            arc_rows = np.flatnonzero(in_arc[d])
            if arc_rows.shape[0] == 0:
                arc_rows = np.arange(x.shape[0])
            extra = arc_rows[rng.integers(0, arc_rows.shape[0], size=quota[d])]
            idx = np.array(chosen[d] + extra.tolist(), dtype=np.int64)
        else:
            idx = np.array(chosen[d], dtype=np.int64)
        out.append(DevicePartition(x[idx].copy(), y[idx].copy()))
    return out


@pytest.mark.parametrize(
    "seed, samples, devices, per_device",
    [
        (0, 900, 3, 250),
        (1, 2000, 5, 300),
        (2, 1500, 5, 300),  # the pool just covers every quota
        (3, 400, 4, 150),  # starved: tops up with replacement
        (4, 60, 6, 40),
        (5, 3000, 1, 900),
        (6, 1200, 2, 700),
        (7, 2500, 7, 200),
        (8, 500, 9, 80),
        (9, 1000, 5, 1),
        (10, 30, 2, 25),
        (11, 5000, 5, 1000),
    ],
)
def test_coverage_partition_matches_the_per_row_loop(seed, samples, devices, per_device):
    schema = DatasetSchema(num_features=8, num_classes=3)
    x, y = gen_ring_sectors(schema, samples=samples, seed=seed, sectors=6)
    plan = PartitionPlan(devices, per_device, strategy="coverage")
    got_parts = partition(x, y, plan, seed)
    want_parts = coverage_partition_oracle(x, y, plan, seed)
    for got, want in zip(got_parts, want_parts, strict=True):
        assert got.features.tobytes() == want.features.tobytes()
        assert got.labels.tobytes() == want.labels.tobytes()


def test_principal_plane_angles_recover_a_planted_plane():
    """Angles in the dominant plane come back as a rigid motion (rotation,
    possibly reflected) of the true ones."""
    rng = np.random.default_rng(55)
    theta = rng.uniform(0, 2 * np.pi, size=800)
    x = np.zeros((800, 9))
    x[:, 3] = 8.0 * np.cos(theta)
    x[:, 7] = 8.0 * np.sin(theta)
    x[:, (0, 1, 2, 4, 5, 6, 8)] = 0.001 * rng.normal(size=(800, 7))
    got = principal_plane_angles(x)
    direct = np.exp(1j * (got - theta))
    mirrored = np.exp(1j * (got + theta))
    # one of the two alignments concentrates on a single phase
    assert max(abs(direct.mean()), abs(mirrored.mean())) > 0.999
