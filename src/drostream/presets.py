"""Experiment configurations: the two bundled studies plus custom configs.

An ExperimentConfig is a plain JSON-shaped description of a whole run
(model, data distribution, arrivals, solver knobs). ``materialize`` turns
one into live objects, and building is the validation: each section is
checked in the one builder that constructs it (``build_model``, ...),
which re-raises a domain constructor's rejection as a ConfigError at the
section's path. ``from_dict`` checks the root keys and then builds, so it
accepts exactly what ``materialize`` can build. The dataclass fields are
the one list of config keys: ``to_dict`` (a deep copy) writes them in
declaration order and ``from_dict`` rejects any other key.

Study presets:
  study1  scalar decision against a three-center Gaussian mixture in R^3,
          cost x^2 - |xi|^2, one arrival per period, 200 points.
  study2  30-dimensional decision, 10-dimensional samples, random quadratic
          cost, arrivals every 1 to 3 periods, 500 points.
"""

from __future__ import annotations

import sys
from contextlib import contextmanager
from dataclasses import asdict, dataclass, fields, replace
from typing import Iterator, Optional

import numpy as np

from .ambiguity import ConcentrationParams, ConfidenceSchedule, study_schedule
from .model import CostModel, Tolerances, portfolio_model, quadratic_model
from .runner import CoverConfig, RunConfig
from .stream import (
    FixedPeriod,
    MixtureComponent,
    MixtureSpec,
    SamplePoint,
    UniformRandomPeriod,
    channels,
    sample_stream,
)
from .subgrad import make_rule


class ConfigError(ValueError):
    """Invalid experiment config; ``path`` locates the offending field."""

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path


@dataclass(frozen=True)
class ExperimentConfig:
    """JSON-shaped description of one experiment run."""

    preset: str
    seed: int
    n0: int
    model: dict
    mixture: dict
    arrival: dict
    tolerances: dict
    concentration: dict
    schedule: str
    step_rule: str
    stop_rule: str
    cost_budget_per_period: float
    cover: dict
    x0: dict
    n_validation: int

    def to_dict(self) -> dict:
        """A deep copy, fields in declaration order: editing it leaves this
        config alone."""
        return asdict(self)


_STUDY2_MIXTURE_SEED = 1009
_STUDY2_MATRIX_SEED = 2027


def _study2_mixture() -> dict:
    rng = np.random.default_rng(_STUDY2_MIXTURE_SEED)
    means = rng.uniform(-10.0, 10.0, size=(3, 10))
    return {
        "means": means.tolist(),
        "covariances": [np.eye(10).tolist() for _ in range(3)],
        "weights": [1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0],
    }


def study1(seed: int = 0, cover_enabled: bool = False) -> ExperimentConfig:
    """Three-center mixture study: 200 points, one arrival per period.

    The cover defaults to off here: it widens the ball by its transport
    slack, the mean 1-norm distance from an absorbed point to its center.
    At this scale the slack dominates the schedule radius (about 1.15
    against 0.41 at n=200, seed 0) and pushes certificates far above the
    reference optimum. Enable it to study compression behavior, not
    accuracy.
    """
    return ExperimentConfig(
        preset="study1",
        seed=seed,
        n0=200,
        model={
            "kind": "quadratic",
            "a": [[1.0]],
            "b": [[0.0, 0.0, 0.0]],
            "c": [[-1.0, 0.0, 0.0], [0.0, -1.0, 0.0], [0.0, 0.0, -1.0]],
        },
        mixture={
            "means": [[2.0, -4.0, 3.0], [-3.0, 5.0, 0.0], [0.0, 0.0, -6.0]],
            "covariances": [
                [[1.0, 0.0, 0.0], [0.0, 3.0, 0.0], [0.0, 0.0, 2.0]],
                [[2.0, 0.0, 0.0], [0.0, 2.0, 0.0], [0.0, 0.0, 2.0]],
                [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
            ],
            "weights": [0.25, 0.5, 0.25],
        },
        arrival={"kind": "fixed", "period": 1.0},
        tolerances={
            "eps1": 1e-5,
            "eps2": 1e-4,
            "eps_sa": 5e-5,
            "subgrad_bound": 10.0,
            "lipschitz": 1.0,
        },
        concentration={"c1": 2.0, "c2": 1.0, "a": 2.0},
        schedule="study",
        step_rule="harmonic",
        stop_rule="step",
        cost_budget_per_period=50_000.0,
        cover={"enabled": cover_enabled, "omega": 1.5, "metric": "l2"},
        x0={"kind": "uniform", "low": -10.0, "high": 10.0},
        n_validation=10_000,
    )


def study2(seed: int = 0, cover_enabled: bool = True) -> ExperimentConfig:
    """Large-stream study: 500 points in R^10, decisions in R^30.

    The decision tolerance is coarser than study1's: the 30-dim decision
    space makes each epoch's step loop the dominant cost, and certificate
    values here sit near -2700, so a 0.1 step stop still resolves them to
    a fraction of a percent. The period budget is sized so the solver
    keeps pace with arrivals every 1 to 3 periods at full stream length.
    """
    return ExperimentConfig(
        preset="study2",
        seed=seed,
        n0=500,
        model={
            "kind": "quadratic_seeded",
            "matrix_seed": _STUDY2_MATRIX_SEED,
            "d": 30,
            "m": 10,
        },
        mixture=_study2_mixture(),
        arrival={"kind": "uniform", "low": 1.0, "high": 3.0},
        tolerances={
            "eps1": 1e-5,
            "eps2": 1e-1,
            "eps_sa": 5e-2,
            "subgrad_bound": 10.0,
            "lipschitz": 1.0,
        },
        concentration={"c1": 2.0, "c2": 1.0, "a": 2.0},
        schedule="study",
        step_rule="harmonic",
        stop_rule="step",
        cost_budget_per_period=300_000.0,
        cover={"enabled": cover_enabled, "omega": 5.0, "metric": "l2"},
        x0={"kind": "zeros"},
        n_validation=4000,
    )


PRESETS = {"study1": study1, "study2": study2}


def _require(cond: bool, path: str, message: str) -> None:
    if not cond:
        raise ConfigError(path, message)


@contextmanager
def _built_at(path: str) -> Iterator[None]:
    """Re-raise a domain constructor's own rejection at the section's path."""
    try:
        yield
    except ConfigError:
        raise
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(path, str(exc)) from exc


def _fields(spec, path: str, names) -> None:
    """``spec`` must be an object holding exactly the fields ``names``."""
    _require(isinstance(spec, dict), path, "must be an object")
    unknown = set(spec) - set(names)
    _require(not unknown, path, f"unknown fields {sorted(unknown)}")
    missing = set(names) - set(spec)
    _require(not missing, path, f"missing fields {sorted(missing)}")


def _kind(spec, path: str, kinds: dict[str, tuple[str, ...]]) -> str:
    """Check a section that dispatches on ``kind``; returns the kind."""
    _require(isinstance(spec, dict), path, "must be an object")
    kind = spec.get("kind")
    _require(isinstance(kind, str) and kind in kinds, f"{path}.kind",
             f"unknown {path} kind {kind!r}")
    _fields(spec, path, ("kind",) + kinds[kind])
    return kind


def _number(v, path: str) -> float:
    # exact for ints of any size, false for bools, NaN and infinities
    _require(type(v) in (int, float) and abs(v) <= sys.float_info.max,
             path, "must be a finite number")
    return float(v)


def _integer(v, path: str, minimum: int) -> int:
    _require(isinstance(v, int) and not isinstance(v, bool),
             path, "must be an integer")
    _require(v >= minimum, path, f"must be at least {minimum}")
    return v


def _array(v, path: str) -> np.ndarray:
    """A nested list of finite numbers, as a rectangular float array."""
    _require(isinstance(v, list), path, "must be a list")
    entries = np.array(v, dtype=object)  # a ragged list keeps lists inside
    if {type(x) for x in entries.flat} <= {int, float}:
        with _built_at(path):
            arr = entries.astype(float)
        if np.isfinite(arr).all():
            return arr
    for i, item in enumerate(v):  # name the first bad entry, if any
        (_array if isinstance(item, list) else _number)(item, f"{path}[{i}]")
    raise ConfigError(path, "must be a rectangular array")


def build_model(spec: dict) -> CostModel:
    """Check the ``model`` section and build its cost."""
    kind = _kind(spec, "model", {
        "quadratic": ("a", "b", "c"),
        "quadratic_seeded": ("matrix_seed", "d", "m"),
        "portfolio": ("rho",),
    })
    with _built_at("model"):
        if kind == "quadratic":
            return quadratic_model(
                *(_array(spec[k], f"model.{k}") for k in ("a", "b", "c")))
        if kind == "portfolio":
            return portfolio_model(_number(spec["rho"], "model.rho"))
        seed = _integer(spec["matrix_seed"], "model.matrix_seed", 0)
        d = _integer(spec["d"], "model.d", 1)
        m = _integer(spec["m"], "model.m", 1)
        rng = np.random.default_rng(seed)
        G = rng.standard_normal((d, d))
        B = rng.standard_normal((d, m))
        H = rng.standard_normal((m, m))
        return quadratic_model(G.T @ G, B, -(H.T @ H + np.eye(m)))


def build_mixture(spec: dict) -> MixtureSpec:
    """Check the ``mixture`` section and build the sampling distribution."""
    _fields(spec, "mixture", ("means", "covariances", "weights"))
    means, covs, weights = (_array(spec[k], f"mixture.{k}")
                            for k in ("means", "covariances", "weights"))
    _require(len(means) == len(covs) == len(weights), "mixture",
             "means, covariances, weights must have equal length")
    with _built_at("mixture"):
        return MixtureSpec(
            tuple(MixtureComponent(mean, cov) for mean, cov in zip(means, covs)),
            weights)


def build_arrival(spec: dict) -> FixedPeriod | UniformRandomPeriod:
    """Check the ``arrival`` section and build the arrival schedule."""
    kind = _kind(spec, "arrival",
                 {"fixed": ("period",), "uniform": ("low", "high")})
    with _built_at("arrival"):
        if kind == "fixed":
            return FixedPeriod(_number(spec["period"], "arrival.period"))
        return UniformRandomPeriod(_number(spec["low"], "arrival.low"),
                                   _number(spec["high"], "arrival.high"))


def build_tolerances(spec: dict) -> Tolerances:
    """Check the ``tolerances`` section; every field is required."""
    names = [f.name for f in fields(Tolerances)]
    _fields(spec, "tolerances", names)
    for k in names:
        _number(spec[k], f"tolerances.{k}")
    with _built_at("tolerances"):
        return Tolerances(**spec)  # as given: the log writes them back


def build_concentration(spec: dict, m: int) -> ConcentrationParams:
    """Check the ``concentration`` section for samples in dimension ``m``."""
    _fields(spec, "concentration", ("c1", "c2", "a"))
    with _built_at("concentration"):
        return ConcentrationParams(
            **{k: _number(spec[k], f"concentration.{k}")
               for k in ("c1", "c2", "a")}, m=m)


def build_schedule(name: str) -> ConfidenceSchedule:
    _require(name == "study", "schedule",
             "only the 'study' confidence schedule is defined")
    return study_schedule()


def build_cover(spec: dict) -> CoverConfig:
    """Check the ``cover`` section."""
    _fields(spec, "cover", ("enabled", "omega", "metric"))
    _require(isinstance(spec["enabled"], bool), "cover.enabled",
             "must be true or false")
    omega = _number(spec["omega"], "cover.omega")
    _require(omega > 0, "cover.omega", "must be positive")
    _require(spec["metric"] in ("l1", "l2"), "cover.metric",
             "must be 'l1' or 'l2'")
    return CoverConfig(spec["enabled"], omega, spec["metric"])


def build_x0(spec: dict, seed: int, d: int) -> np.ndarray:
    """Check the ``x0`` section and draw or build the starting decision."""
    kind = _kind(spec, "x0",
                 {"zeros": (), "fixed": ("value",), "uniform": ("low", "high")})
    if kind == "zeros":
        return np.zeros(d)
    if kind == "fixed":
        x0 = _array(spec["value"], "x0.value")
        _require(x0.shape == (d,), "x0.value", f"needs length {d}")
        return x0
    low = _number(spec["low"], "x0.low")
    high = _number(spec["high"], "x0.high")
    _require(low <= high, "x0", "low must not exceed high")
    with _built_at("x0"):
        return channels(seed)[3].uniform(low, high, size=d)


@dataclass
class Materialized:
    """Live objects for one configured run."""

    config: ExperimentConfig
    model: CostModel
    mixture: MixtureSpec
    run_config: RunConfig
    stream: list[SamplePoint]


def materialize(cfg: ExperimentConfig,
                stream: Optional[list[SamplePoint]] = None) -> Materialized:
    """Check ``cfg`` by building it into live objects; raises ConfigError
    with the path of the first field that cannot be built. Pass ``stream``
    to replay dumped data instead of drawing fresh samples from the seed."""
    _require(isinstance(cfg.preset, str), "preset", "must be a string")
    seed = _integer(cfg.seed, "seed", 0)
    n0 = _integer(cfg.n0, "n0", 1)
    _integer(cfg.n_validation, "n_validation", 1)
    budget = _number(cfg.cost_budget_per_period, "cost_budget_per_period")
    _require(budget > 0, "cost_budget_per_period", "must be positive")
    _require(cfg.step_rule in ("constant", "harmonic"), "step_rule",
             "must be 'constant' or 'harmonic'")
    _require(cfg.stop_rule in ("step", "horizon"), "stop_rule",
             "must be 'step' or 'horizon'")

    model = build_model(cfg.model)
    mixture = build_mixture(cfg.mixture)
    _require(mixture.dimension == model.dimension_m, "mixture",
             f"dimension {mixture.dimension} does not match the "
             f"model sample dimension {model.dimension_m}")
    arrival = build_arrival(cfg.arrival)
    tolerances = build_tolerances(cfg.tolerances)
    rule = make_rule(cfg.step_rule, tolerances)
    _require(cfg.stop_rule == "step" or not rule.horizon_capped, "stop_rule",
             f"never reached: the horizon is capped at {rule.horizon} steps")
    run_config = RunConfig(
        model=model,
        tolerances=tolerances,
        concentration=build_concentration(cfg.concentration,
                                          model.dimension_m),
        schedule=build_schedule(cfg.schedule),
        n0=n0,
        step_rule=cfg.step_rule,  # type: ignore[arg-type]
        stop_rule=cfg.stop_rule,  # type: ignore[arg-type]
        cost_budget_per_period=budget,
        x0=build_x0(cfg.x0, seed, model.dimension_d),
        cover=build_cover(cfg.cover),
    )
    if stream is None:
        with _built_at("mixture"):
            stream = sample_stream(mixture, n0, seed, arrival)
    return Materialized(cfg, model, mixture, run_config, stream)


def from_dict(data: dict) -> ExperimentConfig:
    """Check an untrusted config dict by building it: it is accepted
    exactly when ``materialize`` can build it. Raises ConfigError with the
    path of the offending field."""
    _fields(data, "<root>", [f.name for f in fields(ExperimentConfig)])
    cfg = ExperimentConfig(**data)
    materialize(cfg, stream=[])
    return cfg


def with_overrides(cfg: ExperimentConfig, *, seed=None, n0=None,
                   cover_enabled=None) -> ExperimentConfig:
    if seed is not None:
        cfg = replace(cfg, seed=int(seed))
    if n0 is not None:
        cfg = replace(cfg, n0=int(n0))
    if cover_enabled is not None:
        cfg = replace(cfg, cover={**cfg.cover, "enabled": bool(cover_enabled)})
    return cfg
