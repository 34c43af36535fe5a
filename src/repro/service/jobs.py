"""Service request schema: JSON submissions <-> engine values.

One JSON document drives both ``repro sweep --spec-file`` and the
service's ``POST /v1/ensemble`` / ``POST /v1/sweep``; this module is the
only parser of it::

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

:data:`FIELDS` declares every top-level field once (JSON type, default,
lower bound, choices, and which endpoints accept it), and
:data:`SCENARIOS` declares the overlays: ``usd`` (the default),
``zealots`` (``zealots``: per-opinion counts), ``noise`` (``rho``,
``horizon``, optional ``tail_fraction``) and ``gossip`` (optional
``rule`` and ``max_rounds``).  A field or overlay parameter that is not
declared for the endpoint is rejected with the accepted names, so a
typo never silently falls back to a default.  The ``graph`` scenario is
CLI/API-only — its spec embeds an explicit edge list, which does not
belong in a service request.

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
import math

import numpy as np

from ..core.config import Configuration
from ..engine import (
    SEED_DERIVATIONS,
    SweepSpec,
    ensemble_key,
    get_scenario,
    gossip_spec,
    noise_spec,
    seed_token,
    usd_spec,
    zealot_spec,
)
from ..workloads import (
    additive_bias_configuration,
    multiplicative_bias_configuration,
    uniform_configuration,
)

__all__ = [
    "FIELDS",
    "Field",
    "RequestError",
    "SCENARIOS",
    "WORKLOADS",
    "EnsembleJob",
    "SweepJob",
    "is_sweep",
    "parse_ensemble",
    "parse_sweep",
    "result_to_jsonable",
    "results_to_jsonable",
    "summarize_results",
    "sweep_job_key",
    "sweep_replicates",
]

#: Workload builders a request's ``params`` feed (uniform takes n,k;
#: additive n,k,beta; multiplicative n,k,alpha).
WORKLOADS = {
    "uniform": uniform_configuration,
    "additive": additive_bias_configuration,
    "multiplicative": multiplicative_bias_configuration,
}


class RequestError(ValueError):
    """A submission the schema rejects (the server answers 400)."""


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


#: JSON types a field may declare, by the phrase error messages use.
_KINDS = {
    "an integer": _is_int,
    "a number": lambda v: _is_int(v) or isinstance(v, float),
    "a string": lambda v: isinstance(v, str),
    "an object": lambda v: isinstance(v, dict),
    "a list": lambda v: isinstance(v, list),
    "a list of integers": lambda v: isinstance(v, list) and all(map(_is_int, v)),
}

ENSEMBLE, SWEEP = "/v1/ensemble", "/v1/sweep"


@dataclasses.dataclass(frozen=True)
class Field:
    """One declared field: a submission's top level or an overlay's.

    ``null`` reads as the default where the default is ``None`` (an
    optional field) and is rejected everywhere else.
    """

    name: str
    kind: str
    default: object = None
    minimum: int | None = None
    choices: tuple = ()
    endpoints: tuple = (ENSEMBLE, SWEEP)
    required: bool = False

    def read(self, payload: dict, prefix: str = ""):
        value = payload.get(self.name, self.default)
        label = prefix + self.name
        if value is None:
            if self.required:
                raise RequestError(f"{label!r} is required")
            if self.default is not None:
                raise RequestError(f"{label!r} must be {self.kind}, got null")
            return None
        if not _KINDS[self.kind](value):
            raise RequestError(f"{label!r} must be {self.kind}, got {value!r}")
        if self.minimum is not None and value < self.minimum:
            raise RequestError(f"{label!r} must be >= {self.minimum}, got {value}")
        if self.choices and value not in self.choices:
            raise RequestError(
                f"{label!r} must be one of {self.choices}, got {value!r}"
            )
        return value


#: Every top-level field of a submission, declared once.
FIELDS = {
    field.name: field
    for field in (
        Field("workload", "a string", "uniform", choices=tuple(WORKLOADS)),
        Field("params", "an object", {}),
        Field("grid", "a list", endpoints=(SWEEP,)),
        Field("scenario", "an object"),
        Field("trials", "an integer", 8, minimum=1),
        Field("seed", "an integer", 20230224, minimum=0),
        Field("max_interactions", "an integer", minimum=1),
        Field(
            "seed_derivation",
            "a string",
            "spawn",
            choices=SEED_DERIVATIONS,
            endpoints=(SWEEP,),
        ),
    )
}

#: Scenario overlays: name -> (spec builder, its declared parameters).
SCENARIOS = {
    "usd": (usd_spec, ()),
    "zealots": (zealot_spec, (Field("zealots", "a list of integers", required=True),)),
    "noise": (
        noise_spec,
        (
            Field("rho", "a number", required=True),
            Field("horizon", "an integer", required=True),
            Field("tail_fraction", "a number", 0.5),
        ),
    ),
    "gossip": (
        gossip_spec,
        (
            Field("rule", "a string", "usd", choices=get_scenario("gossip").RULES),
            Field("max_rounds", "an integer"),
        ),
    ),
}

_SCENARIO_NAME = Field("name", "a string", "usd", choices=tuple(SCENARIOS))


def _read(fields, payload: dict, where: str, prefix: str = "") -> dict:
    """Every declared field of ``payload``; undeclared names are errors."""
    names = [field.name for field in fields]
    unknown = sorted(str(name) for name in payload if name not in names)
    if unknown:
        raise RequestError(
            f"{where} does not accept {unknown}; accepted fields: {names}"
        )
    return {field.name: field.read(payload, prefix) for field in fields}


def _read_submission(payload, endpoint: str) -> dict:
    if not isinstance(payload, dict):
        raise RequestError("submission must be a JSON object")
    fields = [field for field in FIELDS.values() if endpoint in field.endpoints]
    return _read(fields, payload, f"a {endpoint} submission")


def is_sweep(payload) -> bool:
    """A ``grid`` or a list-valued param makes a submission a sweep.

    ``repro submit --kind auto`` routes on this rule, and
    :func:`parse_ensemble` rejects a sweep by the same rule.
    """
    if not isinstance(payload, dict):
        return False
    params = payload.get("params")
    return "grid" in payload or (
        isinstance(params, dict)
        and any(isinstance(value, list) for value in params.values())
    )


def _build_scenario(config: Configuration, overlay: dict | None):
    """Apply the optional scenario overlay to one built configuration."""
    if overlay is None:
        return usd_spec(config)
    name = _SCENARIO_NAME.read(overlay, "scenario.")
    build, fields = SCENARIOS[name]
    values = _read(
        (_SCENARIO_NAME, *fields), overlay, f"scenario {name!r}", "scenario."
    )
    del values["name"]
    return build(config, **values)


def _build_point(doc: dict, params: dict):
    """One grid point of a read submission -> a validated ScenarioSpec."""
    workload = doc["workload"]
    try:
        config = WORKLOADS[workload](**params)
    except (TypeError, ValueError) as exc:
        raise RequestError(
            f"workload {workload!r} rejected params {params!r}: {exc}"
        ) from None
    try:
        spec = _build_scenario(config, doc["scenario"])
        get_scenario(spec.scenario).validate(spec)
    except RequestError:
        raise
    except (TypeError, ValueError) as exc:
        raise RequestError(f"invalid scenario overlay: {exc}") from None
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
    if is_sweep(payload):
        raise RequestError(
            "a 'grid' or a list-valued param makes a sweep; submit it to "
            f"{SWEEP}"
        )
    doc = _read_submission(payload, ENSEMBLE)
    return EnsembleJob(
        spec=_build_point(doc, doc["params"]),
        trials=doc["trials"],
        seed=doc["seed"],
        max_interactions=doc["max_interactions"],
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


def _sweep_grid(params: dict, grid: list | None) -> list[dict]:
    """The grid points of a sweep: explicit rows, or the axes' product."""
    if grid is not None:
        if not all(isinstance(point, dict) for point in grid):
            raise RequestError("'grid' must be a list of parameter objects")
        # Shared scalar params become per-row defaults (the row wins),
        # so {"params": {"k": 3}, "grid": [{"n": 100}, {"n": 200}]}
        # reads the way it looks.
        for name, value in params.items():
            if isinstance(value, (list, dict)):
                raise RequestError(
                    f"'params' alongside 'grid' must hold scalars "
                    f"({name!r} is a {type(value).__name__}); put axes in "
                    "'grid' rows instead"
                )
        return [{**params, **point} for point in grid]
    # Scalars are promoted to one-value axes, so the same document works
    # whether the caller meant a point or a degenerate grid.
    axes = {
        name: values if isinstance(values, list) else [values]
        for name, values in params.items()
    }
    for name, values in axes.items():
        if not values:
            raise RequestError(f"sweep axis {name!r} must be a non-empty list")
    return [
        dict(zip(axes, combo)) for combo in itertools.product(*axes.values())
    ]


def sweep_replicates(payload) -> int | None:
    """A sweep submission's replicate count, read off its shape alone.

    Grid rows (or the product of the ``params`` axes' lengths) times
    ``trials``; nothing is built, so admission control can refuse an
    oversized sweep before :func:`parse_sweep` expands it.  ``None``
    when those fields are malformed: :func:`parse_sweep` names the error.
    """
    if not isinstance(payload, dict):
        return None
    try:
        trials = FIELDS["trials"].read(payload)
    except RequestError:
        return None
    grid, params = payload.get("grid"), payload.get("params", {})
    if isinstance(grid, list):
        return len(grid) * trials
    if not isinstance(params, dict):
        return None
    return trials * math.prod(
        len(values) if isinstance(values, list) else 1 for values in params.values()
    )


def parse_sweep(payload: dict) -> SweepJob:
    """Validate one sweep submission (raises :class:`RequestError`)."""
    doc = _read_submission(payload, SWEEP)
    if doc["grid"] is None and "params" not in payload:
        raise RequestError("sweep submission needs a 'params' or 'grid' entry")
    grid = _sweep_grid(doc["params"], doc["grid"])
    if not grid:
        raise RequestError("sweep grid must be non-empty")
    spec = SweepSpec.from_grid(
        grid,
        lambda **point: _build_point(doc, point),
        trials=doc["trials"],
        max_interactions=doc["max_interactions"],
    )
    return SweepJob(
        spec=spec, seed=doc["seed"], seed_derivation=doc["seed_derivation"]
    )


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
