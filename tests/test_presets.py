"""The config contract: ``from_dict`` accepts exactly what ``materialize``
builds, and names the offending field of everything else."""

import copy
import math

import pytest

from drostream.ambiguity import ConcentrationParams
from drostream.presets import ConfigError, from_dict, materialize, study1, study2
from drostream.stream import FixedPeriod

BAD_VALUES = [None, "x", True, -1, 0, 0.5, math.nan, math.inf, -math.inf,
              [], {}, [[1.0, 2.0], [3.0]], [1.0]]

# The only corruptions of a field outside any array that still build: every
# other value above is rejected there.
SCALAR_ACCEPTED = {
    "preset": ["x"],
    "seed": [0],
    "model.matrix_seed": [0],
    "cover.enabled": [True],
    "x0.low": [-1, 0, 0.5],
    "x0.high": [-1, 0, 0.5],
    **{name: [0.5] for name in (
        "arrival.period", "concentration.c1", "concentration.c2",
        "cost_budget_per_period", "cover.omega", "tolerances.eps2",
        "tolerances.lipschitz", "tolerances.subgrad_bound")},
}


def _leaves(node, path=()):
    if isinstance(node, (dict, list)):
        items = node.items() if isinstance(node, dict) else enumerate(node)
        for key, child in items:
            yield from _leaves(child, path + (key,))
    else:
        yield path


def _corrupted(node, path, value):
    """``node`` with the leaf at ``path`` set to ``value``; only the
    containers along the path are copied."""
    if not path:
        return copy.deepcopy(value)
    out = copy.copy(node)
    out[path[0]] = _corrupted(node[path[0]], path[1:], value)
    return out


def _same(a, b) -> bool:
    return type(a) is type(b) and a == b


@pytest.mark.parametrize("preset", [study1, study2])
def test_from_dict_accepts_exactly_what_materialize_builds(preset):
    base = preset().to_dict()
    cases = accepted = 0
    for path in _leaves(base):
        for value in BAD_VALUES:
            cases += 1
            try:
                cfg = from_dict(_corrupted(base, path, value))
            except ConfigError:
                continue
            materialize(cfg, stream=[])
            accepted += 1
            if any(isinstance(key, int) for key in path):
                # an array entry: any finite number may build, nothing else
                assert isinstance(value, (int, float)) and not isinstance(
                    value, bool) and math.isfinite(value), (path, value)
            else:
                allowed = SCALAR_ACCEPTED.get(".".join(path), [])
                assert any(_same(value, a) for a in allowed), (path, value)
    assert 0 < accepted < cases


@pytest.mark.parametrize("path, value, where", [
    (("model", "a"), [[-1.0]], "model"),
    (("model", "c", 0, 1), 0.5, "model"),
    (("mixture", "covariances", 0, 0, 1), 0.5, "mixture"),
    (("mixture", "means", 0, 0), math.nan, "mixture.means[0][0]"),
    (("mixture", "weights"), [[1.0, 2.0], [3.0]], "mixture.weights"),
    (("arrival", "period"), math.nan, "arrival.period"),
    (("concentration", "a"), 1.0, "concentration"),
    (("tolerances", "eps_sa"), 1e-6, "tolerances"),
    (("x0", "low"), -math.inf, "x0.low"),
    (("x0", "high"), -20.0, "x0"),
    (("n0",), 0, "n0"),
])
def test_a_bad_field_is_reported_at_its_section_path(path, value, where):
    with pytest.raises(ConfigError) as info:
        from_dict(_corrupted(study1().to_dict(), path, value))
    assert info.value.path == where


def test_nan_constants_are_rejected_by_their_constructors():
    with pytest.raises(ValueError):
        FixedPeriod(math.nan)
    for name in ("c1", "c2", "a"):
        params = {"c1": 2.0, "c2": 1.0, "a": 2.0, name: math.nan}
        with pytest.raises(ValueError):
            ConcentrationParams(m=3, **params)


def test_presets_build_their_mixtures_per_call():
    cfg = study1()
    cfg.mixture["weights"][0] = 0.9
    assert study1().mixture["weights"] == [0.25, 0.5, 0.25]
    cfg = study2()
    cfg.mixture["covariances"][0][0][0] = 5.0
    assert cfg.mixture["covariances"][1][0][0] == 1.0
    assert study2().mixture["covariances"][0][0][0] == 1.0
