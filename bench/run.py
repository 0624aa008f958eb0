"""dfedsim benchmark: one workload per invocation, one closed-loop caller.

    python3 bench/run.py --workload compare --seed 0 --seconds 42 --trace 0
    python3 bench/run.py --reference [--write]

A run repeats whole rounds of operations, each starting when the last one
ends, and starts no round that would likely end after ``--seconds``. With
``--trace 0`` a round is one workload CLI invocation, timed from outside,
followed by one setup pass (``run_scenario`` with ``rounds=0`` on every
distinct scenario config the workload builds). With ``--trace 1`` a round
is one untraced and one traced invocation of the same input; the traced one
runs with every public function of the layer modules wrapped (see
``tracer.py``). Every invocation's outputs go through the checks in
``checks.py``; a round fails when the program raises, exits non-zero, or
writes an output that fails a check.

The program is imported from ``src/`` of the checkout this file sits in,
with BLAS pinned to one thread. The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
``--reference`` runs ``dfedsim compare --seed 0`` and compares the sha256
of its trace and summary CSVs with ``reference_digests.json``; ``--write``
regenerates that file.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import importlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path
from typing import Callable

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import checks  # noqa: E402
from tracer import Tracer  # noqa: E402

# Set before numpy loads: on two cores the two-thread OpenBLAS default is
# slower on these small matrices.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
REFERENCE_FILE = BENCH_DIR / "reference_digests.json"
WORK_DIR = ROOT / ".bench_out"
# round i of a run with --seed n feeds the program seed n * INPUTS_PER_SEED + i
INPUTS_PER_SEED = 1000

SWEEP_DELAYS = (0.001, 0.0015, 0.002)

# The small data plan of the tier-1 tests, on the easy "blobs" task: small
# enough for the benchmark's own tests to run every workload in seconds, and
# learnable in a few rounds, which the 36-sector ring at this size is not.
TINY_DATA = {
    "task": "blobs",
    "partition": {"devices": 5, "samples_per_device": 150, "strategy": "coverage"},
    "test_samples": 300,
    "ae_epochs": 5,
}


@dataclasses.dataclass(frozen=True)
class Workload:
    command: tuple[str, ...]  # CLI subcommand and flags; --config and --out are added
    config: dict  # config file contents, without the seed
    points: tuple[tuple[str, float | None], ...]  # (scenario, delay) of each distinct config
    check: Callable[[Path], None]

    @property
    def simulated_rounds(self) -> int:
        return self.config["rounds"] * len(self.points)


# Each workload puts a different layer on top. See README.md for the
# measurements behind each choice.
WORKLOADS = {
    # minibatch SGD in ml_core: three scenarios on the default fleet and data.
    # At the default learning rate of 0.01, eight rounds leave the
    # heterogeneous scheme at 0.12-0.16 accuracy, too close to chance (1/9)
    # for the above-chance check to separate working from broken learning.
    "compare": Workload(
        command=("compare",),
        config={"rounds": 8, "learning_rate": 0.05},
        points=tuple((kind, None) for kind in checks.KINDS),
        check=checks.check_compare,
    ),
    # per-run setup: every sweep point regenerates, repartitions and, for
    # the heterogeneous scheme, retrains five autoencoders. At the default
    # 30 autoencoder epochs those minibatches would give loss_gradients a
    # larger share here than on compare, and the layers would not separate.
    "sweep": Workload(
        command=("sweep", "--jobs", "1", "--delay-sweep", ",".join(map(str, SWEEP_DELAYS))),
        config={"rounds": 2, "data": {"ae_epochs": 5}},
        points=tuple((kind, delay) for delay in SWEEP_DELAYS for kind in checks.KINDS),
        check=checks.check_sweep,
    ),
    # the adaptive-weight grid search at two cluster heads and the base station
    "adaptive": Workload(
        command=("run",),
        config={"kind": "dbfl_homogeneous", "rounds": 3, "aggregation": "adaptive"},
        points=(("dbfl_homogeneous", None),),
        check=checks.check_run,
    ),
}

# (wrapped function, statistic) for the traced run; "s" is inclusive time
PER_LAYER = (
    ("ml_core.loss_gradients", "calls"),
    ("ml_core.loss_gradients", "self_s"),
    ("ml_core.cross_entropy", "calls"),
    ("ml_core.cross_entropy", "s"),
    ("ml_core.train_classifier", "calls"),
    ("ml_core.train_classifier", "self_s"),
    ("ml_core.train_autoencoder", "s"),
    ("data.gen_ring_sectors", "s"),
    ("data.partition", "s"),
    ("aggregation.adaptive_accuracy", "calls"),
    ("aggregation.adaptive_accuracy", "s"),
    ("aggregation.optimize_adaptive_weights", "self_s"),
    ("aggregation.aggregate_weighted", "s"),
    ("aggregation.artifact_probabilities", "calls"),
    ("aggregation.artifact_probabilities", "s"),
    ("clustering.form_clusters", "calls"),
    ("clustering.form_clusters", "s"),
    ("head_selection.select_head", "calls"),
    ("energy.apply_round", "calls"),
    ("energy.apply_round", "s"),
    ("scenarios.run_scenario", "self_s"),
    ("cli.run_cli", "self_s"),
)
STAT_INDEX = {"calls": 0, "s": 1, "self_s": 2}


@dataclasses.dataclass(frozen=True)
class Program:
    cli: object
    scenarios: object


def load_program(root: Path = ROOT) -> Program:
    """Import dfedsim from the checkout's sources, never from site-packages."""
    src = root / "src"
    if not (src / "dfedsim" / "__init__.py").is_file():
        raise SystemExit(f"bench: no dfedsim sources under {src}")
    os.environ.update(BLAS_ENV)
    sys.path.insert(0, str(src))
    cli = importlib.import_module("dfedsim.cli")
    if not Path(cli.__file__).resolve().is_relative_to(src.resolve()):
        raise SystemExit(f"bench: dfedsim was imported from {cli.__file__}, not {src}")
    return Program(cli=cli, scenarios=importlib.import_module("dfedsim.scenarios"))


def workload_config(workload: Workload, seed: int, tiny: bool) -> dict:
    config = dict(workload.config, seed=seed)
    if tiny:
        config["data"] = dict(config.get("data", {}), **TINY_DATA)
    return config


def digests(out: Path) -> dict[str, str]:
    """sha256 of every output file except the manifest, which holds a timestamp."""
    return {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(out.iterdir())
        if path.name != "manifest.json"
    }


def invoke(program: Program, argv: list[str], out: Path) -> float:
    """One CLI invocation into a fresh ``out``; returns its host time."""
    shutil.rmtree(out, ignore_errors=True)
    with contextlib.redirect_stdout(io.StringIO()):
        start = time.perf_counter()
        code = program.cli.run_cli([*argv, "--out", str(out)])
        elapsed = time.perf_counter() - start
    if code != 0:
        raise checks.CheckFailed(f"dfedsim {argv[0]} exited with code {code}")
    return elapsed


def run_operation(program: Program, workload: Workload, seed: int, work: Path,
                  tiny: bool = False) -> tuple[float, dict[str, str]]:
    """One checked workload invocation; returns its host time and digests."""
    config_path = work / "config.json"
    config_path.write_text(json.dumps(workload_config(workload, seed, tiny)), encoding="utf-8")
    out = work / "out"
    elapsed = invoke(program, [*workload.command, "--config", str(config_path)], out)
    workload.check(out)
    return elapsed, digests(out)


def setup_seconds(program: Program, workload: Workload, seed: int, tiny: bool = False) -> float:
    """Host time of ``run_scenario`` with no rounds, summed over the workload's configs."""
    base = workload_config(workload, seed, tiny)
    total = 0.0
    for kind, delay in workload.points:
        data = dict(base, kind=kind, rounds=0)
        if delay is not None:
            data["link"] = {"delay_per_meter_s": delay}
        config = program.cli.config_from_dict(data)
        start = time.perf_counter()
        program.scenarios.run_scenario(config)
        total += time.perf_counter() - start
    return total


def layer_values(stats: dict[str, list], wrapped: set[str]) -> dict[str, float]:
    values = {}
    for name, stat in PER_LAYER:
        if name in wrapped:
            values[f"{name}.{stat}"] = stats.get(name, [0, 0.0, 0.0])[STAT_INDEX[stat]]
    return values


def layer_metrics(wrapped: set[str], samples: list[dict], walls: list[float],
                  traced_walls: list[float]) -> dict[str, tuple[float, str]]:
    """Medians of the traced rounds, printed with their share of traced time."""
    for name, stat in PER_LAYER:
        if name not in wrapped:
            print(f"missing {name}.{stat}: no such function to wrap", file=sys.stderr)
    metrics = {
        metric: (statistics.median(s[metric] for s in samples),
                 "count" if metric.endswith(".calls") else "s")
        for metric in samples[0]
    }
    untraced, traced = statistics.median(walls), statistics.median(traced_walls)
    metrics["tracing.overhead_s"] = (traced - untraced, "s")
    print(f"untraced wall_s {untraced:.4f}, traced wall_s {traced:.4f}")
    for metric, (value, unit) in metrics.items():
        share = f"  ({value / traced:6.1%} of traced wall)" if unit == "s" else ""
        print(f"  {metric:50s} {value:14.6f} {unit}{share}")
    return metrics


def measure(program: Program, name: str, seed: int, seconds: float, trace: bool,
            work: Path) -> dict:
    workload = WORKLOADS[name]
    walls, setups, traced_walls, layer_samples = [], [], [], []
    attempted = failed = 0
    tracer = Tracer()
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        # An untraced run gives every round a new input drawn from its seed,
        # so its medians speak for the seed's inputs rather than one of them.
        # A traced run repeats its first input, so call counts repeat exactly.
        input_seed = seed * INPUTS_PER_SEED + (0 if trace else attempted)
        attempted += 1
        try:
            wall, found = run_operation(program, workload, input_seed, work)
            if attempted == 1:
                for file, digest in found.items():
                    print(f"digest {file} {digest}")
            if trace:
                tracer.reset()
                with tracer:
                    traced, traced_found = run_operation(program, workload, input_seed, work)
                if traced_found != found:
                    raise checks.CheckFailed("the traced invocation wrote other bytes")
                traced_walls.append(traced)
                layer_samples.append(layer_values(tracer.stats, tracer.wrapped))
                print(f"round {attempted}: wall_s {wall:.4f} traced {traced:.4f}", file=sys.stderr)
            else:
                setups.append(setup_seconds(program, workload, input_seed))
                print(f"round {attempted}: wall_s {wall:.4f} setup_s {setups[-1]:.4f}",
                      file=sys.stderr)
            walls.append(wall)
        except checks.CheckFailed as exc:
            failed += 1
            print(f"round {attempted} (input seed {input_seed}) failed: {exc}", file=sys.stderr)
        except Exception:  # a crash in the program is a failed round, not a dead run
            failed += 1
            print(f"round {attempted} (input seed {input_seed}) raised:", file=sys.stderr)
            traceback.print_exc()
        # start no round that would likely end after the measuring time
        now = time.perf_counter()
        if now - start + (now - began) > seconds:
            break

    if not walls:
        metrics = {}
    elif trace:
        metrics = layer_metrics(tracer.wrapped, layer_samples, walls, traced_walls)
    else:
        wall_s, setup_s = statistics.median(walls), statistics.median(setups)
        metrics = {
            "wall_s": (wall_s, "s"),
            "setup_s": (setup_s, "s"),
            "rounds_per_s": (workload.simulated_rounds / (wall_s - setup_s), "rounds/s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
        for metric, (value, unit) in metrics.items():
            print(f"  {metric:14s} {value:10.4f} {unit}")
    print(f"workload {name} seed {seed}: {attempted} rounds attempted, {failed} failed")
    return {
        "correct": failed < attempted,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def reference(program: Program, write: bool, work: Path) -> int:
    """Digests of ``dfedsim compare --seed 0`` against the stored reference."""
    out = work / "out"
    invoke(program, ["compare", "--seed", "0"], out)
    found = digests(out)
    if write:
        REFERENCE_FILE.write_text(json.dumps(found, indent=2, sort_keys=True) + "\n",
                                  encoding="utf-8")
        print(f"wrote {REFERENCE_FILE.name} ({len(found)} files)")
        return 0
    expected = json.loads(REFERENCE_FILE.read_text(encoding="utf-8"))
    mismatched = 0
    for file in sorted(set(found) | set(expected)):
        ok = found.get(file) == expected.get(file)
        mismatched += not ok
        print(f"{'ok' if ok else 'MISMATCH'} {file} {found.get(file, '-')}")
    return 1 if mismatched else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0, help="workload seed, >= 0")
    parser.add_argument("--seconds", type=float, default=42.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--reference", action="store_true",
                        help="compare `dfedsim compare --seed 0` with the stored digests")
    parser.add_argument("--write", action="store_true",
                        help="with --reference, regenerate the stored digests")
    args = parser.parse_args(argv)
    if not args.reference and args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    program = load_program()
    WORK_DIR.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=WORK_DIR))
    try:
        if args.reference:
            return reference(program, args.write, work)
        result = measure(program, args.workload, args.seed, args.seconds,
                         bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0 if result["attempted"] > result["failed"] else 1


if __name__ == "__main__":
    sys.exit(main())
