"""Config parsing under awkward numbers: `config_from_dict` either builds a
`ScenarioConfig` or raises `ConfigError`, whatever numeric values a config
file holds. Skipped where `hypothesis` is not installed."""

import copy

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from dfedsim.cli import config_from_dict, config_to_dict  # noqa: E402
from dfedsim.errors import ConfigError  # noqa: E402
from dfedsim.scenarios import ScenarioConfig  # noqa: E402

NAN, INF = float("nan"), float("inf")


def _numeric_paths(node, path=()):
    """Every (path, value) leaf of a config dict that holds a number."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _numeric_paths(value, path + (key,))
    elif isinstance(node, list):
        for index, value in enumerate(node):
            yield from _numeric_paths(value, path + (index,))
    elif isinstance(node, (int, float)) and not isinstance(node, bool):
        yield path


DEFAULT_DICT = config_to_dict(config_from_dict({"kind": "dbfl_heterogeneous"}))
NUMERIC_PATHS = sorted(_numeric_paths(DEFAULT_DICT), key=repr)
AWKWARD = st.sampled_from([NAN, INF, -INF, 0, 0.0, -1, -0.5, 1e308]) | st.floats()


@settings(max_examples=30, derandomize=True, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(NUMERIC_PATHS), AWKWARD), min_size=1, max_size=3))
def test_numeric_settings_build_a_config_or_raise_config_error(edits):
    data = copy.deepcopy(DEFAULT_DICT)
    for path, value in edits:
        holder = data
        for key in path[:-1]:
            holder = holder[key]
        holder[path[-1]] = value
    try:
        assert isinstance(config_from_dict(data), ScenarioConfig)
    except ConfigError:
        pass
