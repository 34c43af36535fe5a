"""Service request schema: JSON submissions <-> engine values.

The wire schema deliberately mirrors ``repro sweep --spec-file`` so one
JSON document drives both the CLI and the service::

    {
      "workload": "uniform",              // uniform | additive | multiplicative
      "params": {"n": 200, "k": 3},       // one grid point (ensemble) ...
      "params": {"n": [100, 200]},        // ... or axes (sweep)
      "grid": [{"n": 100}, {"n": 200}],   // sweep alternative: explicit points
      "scenario": {"name": "zealots", "zealots": [0, 5]},   // optional overlay
      "trials": 16,
      "seed": 7,
      "max_interactions": 100000,
      "seed_derivation": "spawn"          // sweeps only
    }

The scenario overlay wraps every built configuration in a registered
dynamics variant: ``usd`` (the default), ``zealots`` (``zealots``:
per-opinion counts), ``noise`` (``rho``, ``horizon``, optional
``tail_fraction``) or ``gossip`` (``rule``, optional ``max_rounds``).
The ``graph`` scenario is CLI/API-only — its spec embeds an explicit
edge list, which does not belong in a service request.

Identity is content-addressed end to end: an ensemble request maps to
exactly the :func:`repro.engine.ensemble_key` a direct
``Engine.ensemble()`` call would compute, and a sweep request's job key
hashes the :meth:`SweepSpec.key` with the seed token — so request
deduplication, coalescing and cache-first serving all fall out of the
key, no server-side bookkeeping required.

Result serialization walks the result dataclasses generically
(``Configuration`` -> counts list, numpy scalars/arrays -> plain
Python), so every scenario's result type — including observer-rich ones
like the noise scenario's tail statistics — round-trips without this
module knowing its fields.  The walk is deterministic, which is what
lets tests assert service responses byte-equal direct engine results.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import json

import numpy as np

from ..core.config import Configuration
from ..engine import (
    SweepSpec,
    coerce_spec,
    ensemble_key,
    get_scenario,
    gossip_spec,
    noise_spec,
    seed_token,
    usd_spec,
    zealot_spec,
)
from ..engine.sweep import SEED_DERIVATIONS
from ..workloads import (
    additive_bias_configuration,
    multiplicative_bias_configuration,
    uniform_configuration,
)

__all__ = [
    "RequestError",
    "EnsembleJob",
    "SweepJob",
    "parse_ensemble",
    "parse_sweep",
    "result_to_jsonable",
    "results_to_jsonable",
    "summarize_results",
    "sweep_job_key",
]

#: Workload builders a request's ``params`` feed (same table the CLI
#: sweep command uses: uniform takes n,k; additive n,k,beta;
#: multiplicative n,k,alpha).
WORKLOADS = {
    "uniform": uniform_configuration,
    "additive": additive_bias_configuration,
    "multiplicative": multiplicative_bias_configuration,
}


class RequestError(ValueError):
    """A submission the schema rejects (the server answers 400)."""


def _require_int(payload: dict, name: str, default=None, minimum=None):
    """``payload[name]`` as an int; ``null`` only where the default is one."""
    value = payload.get(name, default)
    if value is None:
        if default is not None:
            raise RequestError(f"{name!r} must be an integer, got null")
        return None
    if isinstance(value, bool) or not isinstance(value, int):
        raise RequestError(f"{name!r} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise RequestError(f"{name!r} must be >= {minimum}, got {value}")
    return value


def _build_scenario(config: Configuration, scenario) -> object:
    """Apply the optional scenario overlay to one built configuration."""
    if scenario is None:
        return usd_spec(config)
    if not isinstance(scenario, dict):
        raise RequestError(
            f"'scenario' must be an object with a 'name', got {scenario!r}"
        )
    params = dict(scenario)
    name = params.pop("name", "usd")
    if name == "usd":
        if params:
            raise RequestError(
                f"scenario 'usd' takes no parameters, got {sorted(params)}"
            )
        return usd_spec(config)
    if name == "zealots":
        zealots = params.pop("zealots", None)
        if params:
            raise RequestError(
                f"unknown scenario parameter(s) for 'zealots': {sorted(params)}"
            )
        if not isinstance(zealots, list) or not all(
            isinstance(z, int) and not isinstance(z, bool) for z in zealots
        ):
            raise RequestError(
                "'scenario.zealots' must be a list of per-opinion integer "
                f"counts, got {zealots!r}"
            )
        return zealot_spec(config, zealots)
    if name == "noise":
        rho = params.pop("rho", None)
        horizon = params.pop("horizon", None)
        tail_fraction = params.pop("tail_fraction", 0.5)
        if params:
            raise RequestError(
                f"unknown scenario parameter(s) for 'noise': {sorted(params)}"
            )
        if not isinstance(rho, (int, float)) or isinstance(rho, bool):
            raise RequestError(f"'scenario.rho' must be a number, got {rho!r}")
        if not isinstance(horizon, int) or isinstance(horizon, bool):
            raise RequestError(
                f"'scenario.horizon' must be an integer, got {horizon!r}"
            )
        return noise_spec(
            config, float(rho), horizon, tail_fraction=float(tail_fraction)
        )
    if name == "gossip":
        rule = params.pop("rule", "usd")
        max_rounds = params.pop("max_rounds", None)
        if params:
            raise RequestError(
                f"unknown scenario parameter(s) for 'gossip': {sorted(params)}"
            )
        return gossip_spec(config, rule=rule, max_rounds=max_rounds)
    raise RequestError(
        f"unknown scenario {name!r}; service scenarios: "
        "usd, zealots, noise, gossip"
    )


def _builder(payload: dict):
    workload = payload.get("workload", "uniform")
    if not isinstance(workload, str) or workload not in WORKLOADS:
        raise RequestError(
            f"unknown workload {workload!r}; available: {tuple(WORKLOADS)}"
        )
    return WORKLOADS[workload]


def _build_point(payload: dict, params: dict):
    """One grid point -> a coerced, validated ScenarioSpec."""
    builder = _builder(payload)
    try:
        config = builder(**params)
    except TypeError as exc:
        raise RequestError(
            f"workload {payload.get('workload', 'uniform')!r} rejected "
            f"params {params!r}: {exc}"
        ) from None
    except ValueError as exc:
        raise RequestError(f"invalid workload params {params!r}: {exc}") from None
    try:
        spec = coerce_spec(_build_scenario(config, payload.get("scenario")))
    except (TypeError, ValueError) as exc:
        if isinstance(exc, RequestError):
            raise
        raise RequestError(f"invalid scenario overlay: {exc}") from None
    scenario = get_scenario(spec.scenario)
    try:
        scenario.validate(spec)
    except (TypeError, ValueError) as exc:
        raise RequestError(f"invalid {spec.scenario!r} spec: {exc}") from None
    return spec


# ----------------------------------------------------------------------
# Ensemble submissions
# ----------------------------------------------------------------------
@dataclasses.dataclass(frozen=True)
class EnsembleJob:
    """One parsed ensemble submission, ready for ``Engine.ensemble``."""

    spec: object
    trials: int
    seed: int
    max_interactions: int | None

    @property
    def replicates(self) -> int:
        return self.trials

    def key(self, variant: str) -> str:
        """The content-addressed cache key this request resolves to."""
        return ensemble_key(
            self.spec,
            trials=self.trials,
            seed=self.seed,
            variant=variant,
            max_interactions=self.max_interactions,
        )


def parse_ensemble(payload: dict) -> EnsembleJob:
    """Validate one ensemble submission (raises :class:`RequestError`)."""
    if not isinstance(payload, dict):
        raise RequestError("submission must be a JSON object")
    params = payload.get("params", {})
    if not isinstance(params, dict):
        raise RequestError(f"'params' must be an object, got {params!r}")
    for name, value in params.items():
        if isinstance(value, (list, dict)):
            raise RequestError(
                f"ensemble params must be scalars ({name!r} is a "
                f"{type(value).__name__}); submit lists to /v1/sweep"
            )
    trials = _require_int(payload, "trials", default=8, minimum=1)
    seed = _require_int(payload, "seed", default=20230224, minimum=0)
    budget = _require_int(payload, "max_interactions", minimum=1)
    spec = _build_point(payload, params)
    return EnsembleJob(
        spec=spec, trials=trials, seed=seed, max_interactions=budget
    )


# ----------------------------------------------------------------------
# Sweep submissions
# ----------------------------------------------------------------------
@dataclasses.dataclass(frozen=True)
class SweepJob:
    """One parsed sweep submission, ready for ``Engine.sweep``."""

    spec: SweepSpec
    seed: int
    seed_derivation: str

    @property
    def replicates(self) -> int:
        return self.spec.total_trials

    def key(self) -> str:
        return sweep_job_key(self.spec, self.seed, self.seed_derivation)


def sweep_job_key(spec: SweepSpec, seed, seed_derivation: str) -> str:
    """Content hash identifying one sweep request (grid + seeds).

    The :meth:`SweepSpec.key` already hashes every cell; folding in the
    seed token and derivation makes the job key exactly as precise as
    the results — two requests share a key iff their responses are
    bit-identical.
    """
    payload = json.dumps(
        {
            "sweep": spec.key(),
            "seed": seed_token(seed),
            "derivation": seed_derivation,
        },
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def _grid_from_axes(axes: dict) -> list[dict]:
    names = list(axes)
    for name in names:
        values = axes[name]
        if not isinstance(values, list) or not values:
            raise RequestError(
                f"sweep axis {name!r} must be a non-empty list, "
                f"got {values!r}"
            )
    return [
        dict(zip(names, combo))
        for combo in itertools.product(*(axes[name] for name in names))
    ]


def parse_sweep(payload: dict) -> SweepJob:
    """Validate one sweep submission (raises :class:`RequestError`)."""
    if not isinstance(payload, dict):
        raise RequestError("submission must be a JSON object")
    trials = _require_int(payload, "trials", default=8, minimum=1)
    seed = _require_int(payload, "seed", default=20230224, minimum=0)
    budget = _require_int(payload, "max_interactions", minimum=1)
    derivation = payload.get("seed_derivation", "spawn")
    if derivation not in SEED_DERIVATIONS:
        raise RequestError(
            f"'seed_derivation' must be one of {SEED_DERIVATIONS}, "
            f"got {derivation!r}"
        )
    if "grid" in payload:
        grid = payload["grid"]
        if not isinstance(grid, list) or not all(
            isinstance(point, dict) for point in grid
        ):
            raise RequestError("'grid' must be a list of parameter objects")
        # Shared scalar params become per-row defaults (the row wins),
        # so {"params": {"k": 3}, "grid": [{"n": 100}, {"n": 200}]}
        # reads the way it looks.
        base = payload.get("params", {})
        if not isinstance(base, dict):
            raise RequestError(f"'params' must be an object, got {base!r}")
        for name, value in base.items():
            if isinstance(value, (list, dict)):
                raise RequestError(
                    f"'params' alongside 'grid' must hold scalars "
                    f"({name!r} is a {type(value).__name__}); put axes in "
                    "'grid' rows instead"
                )
        grid = [{**base, **point} for point in grid]
    elif "params" in payload:
        axes = payload["params"]
        if not isinstance(axes, dict):
            raise RequestError(f"'params' must be an object, got {axes!r}")
        # Scalars are promoted to one-value axes, so the same document
        # works whether the caller meant a point or a degenerate grid.
        grid = _grid_from_axes(
            {
                name: values if isinstance(values, list) else [values]
                for name, values in axes.items()
            }
        )
    else:
        raise RequestError("sweep submission needs a 'params' or 'grid' entry")
    if not grid:
        raise RequestError("sweep grid must be non-empty")
    cells = []
    for point in grid:
        spec = _build_point(payload, point)
        cells.append((spec, tuple(point.items())))
    from ..engine.sweep import SweepCell

    sweep = SweepSpec(
        cells=tuple(
            SweepCell(
                spec=spec,
                trials=trials,
                max_interactions=budget,
                label=label,
            )
            for spec, label in cells
        )
    )
    return SweepJob(spec=sweep, seed=seed, seed_derivation=derivation)


# ----------------------------------------------------------------------
# Result serialization
# ----------------------------------------------------------------------
def _convert(value):
    if isinstance(value, Configuration):
        return [int(c) for c in value.counts]
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return float(value)
    if isinstance(value, np.ndarray):
        return [_convert(item) for item in value.tolist()]
    if isinstance(value, (list, tuple)):
        return [_convert(item) for item in value]
    if isinstance(value, dict):
        return {str(k): _convert(v) for k, v in value.items()}
    return value


def result_to_jsonable(result) -> dict:
    """One replicate result as plain JSON types.

    A pure function of the result value: two bit-identical results
    serialize to byte-identical JSON (with sorted keys), which is the
    contract the service's determinism tests pin.  ``initial`` is
    dropped — it restates the request's configuration.
    """
    if dataclasses.is_dataclass(result):
        out = {}
        for field in dataclasses.fields(result):
            if field.name == "initial":
                continue
            out[field.name] = _convert(getattr(result, field.name))
        return out
    return {"value": _convert(result)}


def results_to_jsonable(results: list) -> list[dict]:
    """A whole ensemble's results, in replicate order."""
    return [result_to_jsonable(result) for result in results]


def summarize_results(results: list) -> dict:
    """The compact summary that ships even when results do not inline."""
    winners: dict[str, int] = {}
    converged = 0
    costs = []
    for result in results:
        if getattr(result, "converged", False):
            converged += 1
        winner = getattr(result, "winner", None)
        if winner:
            winners[str(int(winner))] = winners.get(str(int(winner)), 0) + 1
        cost = getattr(result, "interactions", None)
        if cost is None:
            cost = getattr(result, "rounds", None)
        if cost is not None:
            costs.append(int(cost))
    summary = {
        "trials": len(results),
        "converged": converged,
        "winners": {k: winners[k] for k in sorted(winners)},
    }
    if costs:
        summary["mean_cost"] = float(np.mean(costs))
        summary["max_cost"] = int(max(costs))
    return summary
