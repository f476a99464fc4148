"""The config contract: ``from_dict`` accepts exactly what ``materialize``
builds, and names the offending field of everything else; and what the
presets' runs guarantee out of sample."""

import copy
import math

import pytest

from drostream.ambiguity import ConcentrationParams
from drostream.presets import (ConfigError, from_dict, materialize, study1,
                               study2, with_overrides)
from drostream.runner import run
from drostream.stream import FixedPeriod, expected_cost

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
    (("mixture", "covariances", 0, 0, 0), 0, "mixture"),  # singular
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


@pytest.mark.parametrize("preset", [study1, study2])
def test_a_horizon_stop_that_is_never_reached_is_rejected(preset):
    # the horizon stop is gone: on both presets the harmonic horizon was
    # capped at 10**18 steps, so no run could reach it. A config that still
    # asks for it is refused as one with an unknown field
    data = preset().to_dict()
    data["stop_rule"] = "horizon"
    with pytest.raises(ConfigError,
                       match=r"unknown fields \['stop_rule'\]") as info:
        from_dict(data)
    assert info.value.path == "<root>"


@pytest.mark.parametrize("preset, cover, seeds", [
    (study1, False, range(20)),
    (study2, True, range(3)),
    # the preset's default: at its concentration constants the ball does
    # not hold the true law, and seed 0's margin is -138.3
    pytest.param(study2, False, range(3), marks=pytest.mark.xfail(
        strict=True, reason="the study2 radius does not hold the true law "
        "at the preset's constants (ROADMAP item 23)")),
], ids=["study1", "study2-cover", "study2"])
def test_no_preset_run_breaks_its_out_of_sample_guarantee(preset, cover,
                                                          seeds):
    # The paper's claim: the output decision's expected cost under the true
    # law is at most its certificate, with high probability. The cost is
    # exact, f(x, mu) + tr(C Sigma), so no draw is needed. The concentration
    # constants c1 and c2 are config inputs, not derived for these
    # mixtures, so this observes the presets; it does not test the theorem.
    for seed in seeds:
        cfg = with_overrides(preset(seed=seed), n0=10, cover_enabled=cover)
        mat = materialize(cfg)
        result = run(mat.run_config, mat.stream)
        oos = expected_cost(mat.model, result.x_best, mat.mixture)
        assert result.j_best - oos >= 0.0, seed
