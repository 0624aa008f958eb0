"""Command-line interface: configure runs, execute them, emit result files.

Five subcommands: `run` (one scenario), `compare` (all three scenarios on a
shared seed and dataset), `sweep` (energy across a delay sweep), `gen-data`
(synthetic dataset to CSV), `validate` (config lint). Configuration comes
from an optional JSON file mirroring the ScenarioConfig field names, each
value decoded by its field's type; command-line flags override file
values. Every output file is a deterministic function of the resolved
config; wall-clock timestamps appear only in the manifest.

Exit codes: 0 success, 1 configuration problem, 2 data problem, 3 runtime
failure. Failures print one line to stderr: `dfedsim: <category>: <reason>`.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import enum
import hashlib
import json
import math
import sys
import types
import typing
from datetime import datetime, timezone
from pathlib import Path

from . import __version__
from .config import ScenarioConfig, ScenarioKind
from .data import _generate, write_csv
from .errors import (
    ConfigError,
    EmptyDataset,
    ParseError,
    SchemaMismatch,
    SimulationError,
)
from .scenarios import (
    RoundTrace,
    _dataset_rows,
    _kind_configs,
    compare_scenarios,
    delay_sweep,
    run_scenario,
    total_energy,
)

TRACE_HEADER = "round,scenario,accuracy,participants,total_energy,per_node_energy_json"
SUMMARY_HEADER = "scenario,final_accuracy,total_energy"
SWEEP_HEADER = "delay_per_meter_s,scenario,total_energy"
DEFAULT_SWEEP = "0.001,0.0015,0.002,0.0025,0.003"

_DATA_ERRORS = (ParseError, SchemaMismatch, EmptyDataset)


# ---------------------------------------------------------- config plumbing


def _asdict(value):
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {f.name: _asdict(getattr(value, f.name)) for f in dataclasses.fields(value)}
    if isinstance(value, enum.Enum):
        return value.value
    if isinstance(value, tuple):
        return [_asdict(v) for v in value]
    return value


def config_to_dict(config: ScenarioConfig) -> dict:
    """The JSON-ready mirror of a ScenarioConfig."""
    return _asdict(config)


def _fits(value, annotation) -> bool:
    """Whether a decoded JSON value may fill a field of this annotation:
    ``int`` takes non-bool ints, ``float`` ints or finite floats, a union
    any of its arms, and any other class its instances."""
    if isinstance(annotation, types.UnionType):
        return any(_fits(value, arm) for arm in typing.get_args(annotation))
    if annotation is int:
        return isinstance(value, int) and not isinstance(value, bool)
    if annotation is float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            return False
        try:
            return math.isfinite(value)
        except OverflowError:  # an int beyond the float range
            return False
    return isinstance(value, annotation)


def _describe(annotation) -> str:
    words = {int: "an integer", float: "a finite number", type(None): "null"}
    arms = typing.get_args(annotation) or (annotation,)
    return " or ".join(words.get(arm, arm.__name__) for arm in arms)


def _decode(annotation, value, context: str, default=dataclasses.MISSING):
    """A decoded JSON value as a field of this annotation: a config class
    from an object (starting from the field's ``default`` when it has one),
    an enum member by its value, ``tuple[X, ...]`` from a list of ``X``,
    and any other leaf as ``_fits`` allows."""
    if typing.get_origin(annotation) is tuple:
        if not isinstance(value, list):
            raise ConfigError(f"{context} must be a list, got {type(value).__name__}")
        item = typing.get_args(annotation)[0]
        return tuple(_decode(item, v, f"{context}[{i}]") for i, v in enumerate(value))
    if dataclasses.is_dataclass(annotation):
        return _build(annotation, value, context, default)
    if isinstance(annotation, type) and issubclass(annotation, enum.Enum):
        try:
            return annotation(value)
        except ValueError:
            options = ", ".join(e.value for e in annotation)
            raise ConfigError(f"{context} must be one of: {options} (got {value!r})")
    if _fits(value, annotation):
        return value
    raise ConfigError(f"{context} must be {_describe(annotation)}, got {value!r}")


def _build(cls, data: dict, context: str, default=dataclasses.MISSING):
    """A ``cls`` from an object. With a ``default`` instance the object
    replaces only the keys it names, so a partial nested object keeps the
    rest of its field's default."""
    if not isinstance(data, dict):
        raise ConfigError(f"{context} must be an object, got {type(data).__name__}")
    # the annotations are strings under postponed evaluation
    hints = typing.get_type_hints(cls)
    fields = {f.name: f for f in dataclasses.fields(cls)}
    unknown = sorted(set(data) - set(fields))
    if unknown:
        raise ConfigError(f"unknown key(s) under {context}: {', '.join(unknown)}")
    kwargs = {
        name: _decode(hints[name], value, f"{context}.{name}", fields[name].default)
        for name, value in data.items()
    }
    try:
        if default is dataclasses.MISSING:
            return cls(**kwargs)
        return dataclasses.replace(default, **kwargs)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"{context}: {exc}") from exc


def config_from_dict(data: dict) -> ScenarioConfig:
    """Inverse of config_to_dict, with unknown-key and value checking."""
    return _build(ScenarioConfig, data, "config")


def _load_config_file(path: str) -> dict:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc.strerror}")
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}")
    if not isinstance(data, dict):
        raise ConfigError(f"config file {path} must hold a JSON object")
    return data


def _resolve_config(args, require_kind: bool) -> ScenarioConfig:
    data = _load_config_file(args.config) if args.config else {}
    if getattr(args, "scenario", None) is not None:
        data["kind"] = args.scenario
    if args.rounds is not None:
        data["rounds"] = args.rounds
    if args.seed is not None:
        data["seed"] = args.seed
    if getattr(args, "data_csv", None) is not None:
        data.setdefault("data", {})
        if not isinstance(data["data"], dict):
            raise ConfigError("config.data must be an object")
        data["data"]["csv_path"] = args.data_csv
    if "kind" not in data:
        if require_kind:
            raise ConfigError("no scenario given; use --scenario or a config file with 'kind'")
        data["kind"] = ScenarioKind.CVFL.value
    return config_from_dict(data)


def _config_digest(config: ScenarioConfig) -> str:
    canonical = json.dumps(config_to_dict(config), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------- writers


def _format(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _write_rows(path: Path, header: str, rows: list[list[str]]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header.split(","))
        writer.writerows(rows)


def _trace_rows(kind: ScenarioKind, traces: list[RoundTrace]) -> list[list[str]]:
    rows = []
    for t in traces:
        participants = ";".join(str(p) for p in t.participants)
        per_node = json.dumps(
            {str(n): v for n, v in sorted(t.energy_spent.items())},
            sort_keys=True,
            separators=(",", ":"),
        )
        rows.append(
            [
                str(t.round_index),
                kind.value,
                _format(t.accuracy),
                participants,
                _format(total_energy([t])),
                per_node,
            ]
        )
    return rows


def _write_manifest(out_dir: Path, configs: list[ScenarioConfig], outputs: list[Path]) -> None:
    dicts = [config_to_dict(config) for config in configs]
    digests = [_config_digest(config) for config in configs]
    payload = {
        "version": __version__,
        "seed": configs[0].seed,
        "config_sha256": digests[0] if len(digests) == 1 else digests,
        "created_utc": datetime.now(timezone.utc).isoformat(),
        "outputs": [p.name for p in outputs],
        "config": dicts[0] if len(dicts) == 1 else dicts,
    }
    manifest = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    (out_dir / "manifest.json").write_text(manifest, encoding="utf-8")


# ------------------------------------------------------------- subcommands


def _cmd_run(args) -> int:
    config = _resolve_config(args, require_kind=True)
    traces = run_scenario(config)
    out = Path(args.out)
    trace_path = out / f"trace_{config.kind.value}.csv"
    _write_rows(trace_path, TRACE_HEADER, _trace_rows(config.kind, traces))
    _write_manifest(out, [config], [trace_path])
    print(f"wrote {trace_path} ({len(traces)} rounds)")
    return 0


def _cmd_compare(args) -> int:
    base = _resolve_config(args, require_kind=False)
    out = Path(args.out)
    outputs, summary_rows = [], []
    for kind, traces in compare_scenarios(base).items():
        trace_path = out / f"trace_{kind.value}.csv"
        _write_rows(trace_path, TRACE_HEADER, _trace_rows(kind, traces))
        outputs.append(trace_path)
        final_accuracy = traces[-1].accuracy if traces else 0.0
        summary_rows.append(
            [kind.value, _format(final_accuracy), _format(total_energy(traces))]
        )
    summary_path = out / "summary.csv"
    _write_rows(summary_path, SUMMARY_HEADER, summary_rows)
    outputs.append(summary_path)
    _write_manifest(out, _kind_configs(base), outputs)
    print(f"wrote {len(outputs)} files under {out}")
    return 0


def _cmd_sweep(args) -> int:
    base = _resolve_config(args, require_kind=False)
    try:
        delays = [float(v) for v in args.delay_sweep.split(",") if v.strip()]
    except ValueError:
        raise ConfigError(f"--delay-sweep must be comma-separated numbers, got {args.delay_sweep!r}")
    if args.jobs < 1:
        raise ConfigError("jobs must be >= 1")
    rows = [
        [_format(delay), kind.value, _format(total)]
        for delay, kind, total in delay_sweep(base, delays)
    ]
    out = Path(args.out)
    sweep_path = out / "sweep.csv"
    _write_rows(sweep_path, SWEEP_HEADER, rows)
    _write_manifest(out, [base], [sweep_path])
    print(f"wrote {sweep_path} ({len(delays)} delays x {len(list(ScenarioKind))} scenarios)")
    return 0


def _cmd_gen_data(args) -> int:
    config = _resolve_config(args, require_kind=False)
    plan = config.data
    if args.samples is not None:
        if args.samples < 1:
            raise ConfigError("--samples must be >= 1")
        samples = args.samples
    else:
        samples = _dataset_rows(config)
    features, labels = _generate(plan, samples, config.seed)
    out = Path(args.out)
    data_path = out / "dataset.csv"
    out.mkdir(parents=True, exist_ok=True)
    write_csv(data_path, features, labels, plan.schema)
    _write_manifest(out, [config], [data_path])
    print(f"wrote {data_path} ({samples} samples)")
    return 0


def _cmd_validate(args) -> int:
    config = _resolve_config(args, require_kind=False)
    digest = _config_digest(config)
    print(
        f"ok kind={config.kind.value} rounds={config.rounds} seed={config.seed} "
        f"devices={len(config.devices)} sha256={digest[:12]}"
    )
    # run needs only the file's own kind, but compare and sweep build all three
    try:
        _kind_configs(config)
    except ConfigError as exc:
        print(f"note: compare and sweep stop at config time: {exc}")
    return 0


# ------------------------------------------------------------ entry point


class _Parser(argparse.ArgumentParser):
    # argparse exits with its own codes; route its complaints through the
    # config-error path so the documented exit codes hold
    def error(self, message):
        raise ConfigError(message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="dfedsim", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, scenario_flag=False):
        p.add_argument("--config", help="JSON config file mirroring ScenarioConfig")
        p.add_argument("--rounds", type=int, default=None)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out", default="results", help="output directory")
        p.add_argument("--data", dest="data_csv", default=None,
                       help="dataset CSV path (overrides synthetic generation)")
        if scenario_flag:
            p.add_argument("--scenario", choices=[k.value for k in ScenarioKind])

    p_run = sub.add_parser("run", help="run one scenario, write its trace CSV")
    common(p_run, scenario_flag=True)
    p_run.set_defaults(fn=_cmd_run)

    p_cmp = sub.add_parser("compare", help="run all three scenarios on one seed")
    common(p_cmp)
    p_cmp.set_defaults(fn=_cmd_compare)

    p_sweep = sub.add_parser("sweep", help="total energy across a delay sweep")
    common(p_sweep)
    p_sweep.add_argument("--delay-sweep", default=DEFAULT_SWEEP,
                         help="comma-separated delay-per-meter values")
    # ignored, and kept so that command lines that pass it (bench/run.py's sweep) still run
    p_sweep.add_argument("--jobs", type=int, default=1,
                         help="accepted and ignored: the points run in turn")
    p_sweep.set_defaults(fn=_cmd_sweep)

    p_gen = sub.add_parser("gen-data", help="write a synthetic dataset CSV")
    common(p_gen)
    p_gen.add_argument("--samples", type=int, default=None)
    p_gen.set_defaults(fn=_cmd_gen_data)

    p_val = sub.add_parser("validate", help="check a config and print its digest")
    common(p_val, scenario_flag=True)
    p_val.set_defaults(fn=_cmd_validate)

    return parser


def run_cli(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.fn(args)
    except ConfigError as exc:
        print(f"dfedsim: config: {exc}", file=sys.stderr)
        return 1
    except (*_DATA_ERRORS, FileNotFoundError) as exc:
        print(f"dfedsim: data: {exc}", file=sys.stderr)
        return 2
    except (SimulationError, OSError) as exc:
        print(f"dfedsim: runtime: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:
        # numpy's message names the allocation; Python's own is empty
        print(f"dfedsim: runtime: {exc or 'out of memory'}", file=sys.stderr)
        return 3


def main() -> None:
    sys.exit(run_cli())


if __name__ == "__main__":
    main()
