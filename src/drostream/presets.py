"""Experiment configurations: the two bundled studies plus custom configs.

An ExperimentConfig is a plain JSON-shaped description of a whole run
(model, data distribution, arrivals, solver knobs). ``materialize`` turns
one into live objects; ``from_dict`` validates untrusted input field by
field so the CLI can reject bad configs with a precise path. The dataclass
fields are the one list of config keys: ``to_dict`` (a deep copy) writes
them in declaration order and ``from_dict`` rejects any other key.

Study presets:
  study1  scalar decision against a three-center Gaussian mixture in R^3,
          cost x^2 - |xi|^2, one arrival per period, 200 points.
  study2  30-dimensional decision, 10-dimensional samples, random quadratic
          cost, arrivals every 1 to 3 periods, 500 points.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields, replace
from typing import Optional

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
        config and the presets' shared dicts alone."""
        return asdict(self)


_STUDY1_MIXTURE = {
    "means": [[2.0, -4.0, 3.0], [-3.0, 5.0, 0.0], [0.0, 0.0, -6.0]],
    "covariances": [
        [[1.0, 0.0, 0.0], [0.0, 3.0, 0.0], [0.0, 0.0, 2.0]],
        [[2.0, 0.0, 0.0], [0.0, 2.0, 0.0], [0.0, 0.0, 2.0]],
        [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
    ],
    "weights": [0.25, 0.5, 0.25],
}

_STUDY2_MIXTURE_SEED = 1009
_STUDY2_MATRIX_SEED = 2027


def _study2_mixture() -> dict:
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(
        _STUDY2_MIXTURE_SEED)))
    means = rng.uniform(-10.0, 10.0, size=(3, 10))
    eye = np.eye(10).tolist()
    return {
        "means": means.tolist(),
        "covariances": [eye, eye, eye],
        "weights": [1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0],
    }


def study1(seed: int = 0, cover_enabled: bool = False) -> ExperimentConfig:
    """Three-center mixture study: 200 points, one arrival per period.

    The cover defaults to off here: the widened budget the cover requires
    (its ball radius adds to the ambiguity radius) dominates the schedule
    radius at this scale and pushes certificates far above the reference
    optimum. Enable it to study compression behavior, not accuracy.
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
        mixture=_STUDY1_MIXTURE,
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


def _check_keys(d: dict, allowed: set[str], path: str) -> None:
    unknown = set(d) - allowed
    _require(not unknown, path, f"unknown fields {sorted(unknown)}")


def from_dict(data: dict) -> ExperimentConfig:
    """Validate an untrusted config dict; raises ConfigError with the path."""
    _require(isinstance(data, dict), "<root>", "config must be an object")
    allowed = {f.name for f in fields(ExperimentConfig)}
    _check_keys(data, allowed, "<root>")
    missing = allowed - set(data)
    _require(not missing, "<root>", f"missing fields {sorted(missing)}")

    def num(path, v, positive=False):
        _require(isinstance(v, (int, float)) and not isinstance(v, bool),
                 path, "must be a number")
        if positive:
            _require(v > 0, path, "must be positive")
        return float(v)

    def integer(path, v, minimum=None):
        _require(isinstance(v, int) and not isinstance(v, bool),
                 path, "must be an integer")
        if minimum is not None:
            _require(v >= minimum, path, f"must be at least {minimum}")
        return v

    integer("seed", data["seed"], 0)
    integer("n0", data["n0"], 1)
    integer("n_validation", data["n_validation"], 1)
    num("cost_budget_per_period", data["cost_budget_per_period"], positive=True)

    model = data["model"]
    _require(isinstance(model, dict), "model", "must be an object")
    kind = model.get("kind")
    if kind == "quadratic":
        _check_keys(model, {"kind", "a", "b", "c"}, "model")
        for key in ("a", "b", "c"):
            _require(key in model, f"model.{key}", "required for quadratic")
    elif kind == "quadratic_seeded":
        _check_keys(model, {"kind", "matrix_seed", "d", "m"}, "model")
        for key in ("matrix_seed", "d", "m"):
            _require(key in model, f"model.{key}", "required for seeded model")
        integer("model.matrix_seed", model["matrix_seed"], 0)
        integer("model.d", model["d"], 1)
        integer("model.m", model["m"], 1)
    elif kind == "portfolio":
        _check_keys(model, {"kind", "rho"}, "model")
        num("model.rho", model.get("rho", 0.0), positive=True)
    else:
        raise ConfigError("model.kind", f"unknown model kind {kind!r}")

    mix = data["mixture"]
    _require(isinstance(mix, dict), "mixture", "must be an object")
    _check_keys(mix, {"means", "covariances", "weights"}, "mixture")
    for key in ("means", "covariances", "weights"):
        _require(key in mix and isinstance(mix[key], list),
                 f"mixture.{key}", "must be a list")
    _require(
        len(mix["means"]) == len(mix["covariances"]) == len(mix["weights"]),
        "mixture", "means, covariances, weights must have equal length",
    )

    arrival = data["arrival"]
    _require(isinstance(arrival, dict), "arrival", "must be an object")
    akind = arrival.get("kind")
    if akind == "fixed":
        _check_keys(arrival, {"kind", "period"}, "arrival")
        num("arrival.period", arrival.get("period", 0), positive=True)
    elif akind == "uniform":
        _check_keys(arrival, {"kind", "low", "high"}, "arrival")
        low = num("arrival.low", arrival.get("low", 0), positive=True)
        high = num("arrival.high", arrival.get("high", 0), positive=True)
        _require(low >= 1.0, "arrival.low", "must be at least one period")
        _require(low <= high, "arrival", "low must not exceed high")
    else:
        raise ConfigError("arrival.kind", f"unknown arrival kind {akind!r}")

    tol = data["tolerances"]
    _require(isinstance(tol, dict), "tolerances", "must be an object")
    _check_keys(tol, {"eps1", "eps2", "eps_sa", "subgrad_bound", "lipschitz"},
                "tolerances")
    for key in ("eps1", "eps2", "eps_sa", "subgrad_bound", "lipschitz"):
        _require(key in tol, f"tolerances.{key}", "required")
        num(f"tolerances.{key}", tol[key], positive=True)
    try:
        Tolerances(**tol)
    except ValueError as exc:
        raise ConfigError("tolerances", str(exc)) from exc

    conc = data["concentration"]
    _require(isinstance(conc, dict), "concentration", "must be an object")
    _check_keys(conc, {"c1", "c2", "a"}, "concentration")
    for key in ("c1", "c2", "a"):
        _require(key in conc, f"concentration.{key}", "required")
        num(f"concentration.{key}", conc[key], positive=True)
    _require(conc["a"] > 1, "concentration.a", "must exceed 1")

    _require(data["schedule"] == "study", "schedule",
             "only the 'study' confidence schedule is defined")
    _require(data["step_rule"] in ("constant", "harmonic"), "step_rule",
             "must be 'constant' or 'harmonic'")
    _require(data["stop_rule"] in ("step", "horizon"), "stop_rule",
             "must be 'step' or 'horizon'")

    cover = data["cover"]
    _require(isinstance(cover, dict), "cover", "must be an object")
    _check_keys(cover, {"enabled", "omega", "metric"}, "cover")
    _require(isinstance(cover.get("enabled"), bool), "cover.enabled",
             "must be true or false")
    num("cover.omega", cover.get("omega", 0), positive=True)
    _require(cover.get("metric") in ("l1", "l2"), "cover.metric",
             "must be 'l1' or 'l2'")

    x0 = data["x0"]
    _require(isinstance(x0, dict), "x0", "must be an object")
    xkind = x0.get("kind")
    if xkind == "uniform":
        _check_keys(x0, {"kind", "low", "high"}, "x0")
        lo = num("x0.low", x0.get("low", 0))
        hi = num("x0.high", x0.get("high", 0))
        _require(lo <= hi, "x0", "low must not exceed high")
    elif xkind == "fixed":
        _check_keys(x0, {"kind", "value"}, "x0")
        _require(isinstance(x0.get("value"), list), "x0.value",
                 "must be a list")
    elif xkind == "zeros":
        _check_keys(x0, {"kind"}, "x0")
    else:
        raise ConfigError("x0.kind", f"unknown x0 kind {xkind!r}")

    return ExperimentConfig(**{
        **data,
        "preset": str(data["preset"]),
        "cost_budget_per_period": float(data["cost_budget_per_period"]),
    })


def build_model(spec: dict) -> CostModel:
    kind = spec["kind"]
    if kind == "quadratic":
        return quadratic_model(spec["a"], spec["b"], spec["c"])
    if kind == "quadratic_seeded":
        d, m = int(spec["d"]), int(spec["m"])
        rng = np.random.Generator(
            np.random.PCG64(np.random.SeedSequence(int(spec["matrix_seed"])))
        )
        G = rng.standard_normal((d, d))
        B = rng.standard_normal((d, m))
        H = rng.standard_normal((m, m))
        return quadratic_model(G.T @ G, B, -(H.T @ H + np.eye(m)))
    if kind == "portfolio":
        return portfolio_model(float(spec["rho"]))
    raise ConfigError("model.kind", f"unknown model kind {kind!r}")


def build_mixture(spec: dict) -> MixtureSpec:
    comps = tuple(
        MixtureComponent(np.asarray(mean, dtype=float),
                         np.asarray(cov, dtype=float))
        for mean, cov in zip(spec["means"], spec["covariances"])
    )
    return MixtureSpec(comps, np.asarray(spec["weights"], dtype=float))


def build_arrival(spec: dict):
    if spec["kind"] == "fixed":
        return FixedPeriod(float(spec["period"]))
    return UniformRandomPeriod(float(spec["low"]), float(spec["high"]))


def build_schedule(name: str) -> ConfidenceSchedule:
    if name != "study":
        raise ConfigError("schedule", f"unknown schedule {name!r}")
    return study_schedule()


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
    """Build live objects; pass ``stream`` to replay dumped data instead of
    drawing fresh samples from the seed."""
    model = build_model(cfg.model)
    mixture = build_mixture(cfg.mixture)
    if mixture.dimension != model.dimension_m:
        raise ConfigError(
            "mixture", f"dimension {mixture.dimension} does not match the "
            f"model sample dimension {model.dimension_m}")
    tol = Tolerances(**cfg.tolerances)
    conc = ConcentrationParams(
        c1=float(cfg.concentration["c1"]),
        c2=float(cfg.concentration["c2"]),
        m=model.dimension_m,
        a=float(cfg.concentration["a"]),
    )
    schedule = build_schedule(cfg.schedule)
    if stream is None:
        stream = sample_stream(mixture, cfg.n0, cfg.seed, build_arrival(cfg.arrival))

    xk = cfg.x0["kind"]
    if xk == "zeros":
        x0 = np.zeros(model.dimension_d)
    elif xk == "fixed":
        x0 = np.asarray(cfg.x0["value"], dtype=float)
        if x0.shape != (model.dimension_d,):
            raise ConfigError("x0.value", f"needs length {model.dimension_d}")
    else:
        rng_x0 = channels(cfg.seed)[3]
        x0 = rng_x0.uniform(cfg.x0["low"], cfg.x0["high"],
                            size=model.dimension_d)

    run_config = RunConfig(
        model=model,
        tolerances=tol,
        concentration=conc,
        schedule=schedule,
        n0=cfg.n0,
        step_rule=cfg.step_rule,  # type: ignore[arg-type]
        stop_rule=cfg.stop_rule,  # type: ignore[arg-type]
        cost_budget_per_period=cfg.cost_budget_per_period,
        x0=x0,
        cover=CoverConfig(
            enabled=bool(cfg.cover["enabled"]),
            omega=float(cfg.cover["omega"]),
            metric=cfg.cover["metric"],  # type: ignore[arg-type]
        ),
    )
    return Materialized(cfg, model, mixture, run_config, stream)


def with_overrides(cfg: ExperimentConfig, *, seed=None, n0=None,
                   cover_enabled=None) -> ExperimentConfig:
    out = cfg
    if seed is not None:
        out = replace(out, seed=int(seed))
    if n0 is not None:
        out = replace(out, n0=int(n0))
    if cover_enabled is not None:
        cover = dict(out.cover)
        cover["enabled"] = bool(cover_enabled)
        out = replace(out, cover=cover)
    return out
