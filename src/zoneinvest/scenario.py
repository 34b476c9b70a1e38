"""Scenario data model: zone/sub-zone structure, OD matrices, economics.

A scenario bundles everything that stays fixed while demand evolves: the
partition of sub-zones into investable zones, the origin-destination demand,
price and travel-time matrices at the sub-zone level, rider perception
parameters, per-zone demand volatility and the economic constants (drift,
discount rate, ridership cost thresholds).

Scenarios are read from a JSON config that references CSV matrices, or
generated synthetically for experiments.  Instances are frozen; share them
freely across workers.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

ZoneId = str
SubzoneId = str

# defaults applied when a config omits a field
DEFAULTS = {
    "value_of_time": 0.293,   # currency/min
    "alpha_wait": 2.1,
    "alpha_iv": 1.0,
    "gamma": 0.005,
    "speed": 19.31,           # km/hr
    "drift": 0.0,
    "discount_rate": 0.02,
    "horizon_steps": (1.0, 2.0, 3.0, 4.0, 5.0),
}

VOLATILITY_CHOICES = (0.05, 0.10, 0.15, 0.20, 0.25, 0.30, 0.35, 0.40)

_MATRIX_FIELDS = ("base_demand", "trip_price", "in_vehicle_time")
_SCALAR_FIELDS = ("value_of_time", "alpha_wait", "alpha_iv", "gamma", "speed",
                  "drift", "discount_rate")
_COST_FIELDS = ("within_zone_cost", "interzone_cost")


class ScenarioError(ValueError):
    """Malformed scenario config or violated scenario invariant."""


@dataclass(frozen=True, eq=False)
class Scenario:
    """Immutable description of a candidate service region.

    Matrix fields are indexed by ``subzones`` (insertion order of
    ``subzone_to_zone``), rows = origin sub-zone, columns = destination.
    """

    zones: tuple[ZoneId, ...]
    subzone_to_zone: dict[SubzoneId, ZoneId]
    base_demand: np.ndarray
    trip_price: np.ndarray
    in_vehicle_time: np.ndarray
    value_of_time: float
    alpha_wait: float
    alpha_iv: float
    gamma: float
    speed: float
    within_zone_cost: float
    interzone_cost: float
    zone_volatility: dict[ZoneId, float]
    drift: float
    discount_rate: float
    horizon_steps: tuple[float, ...]

    def __post_init__(self):
        for name in _MATRIX_FIELDS:
            arr = np.asarray(getattr(self, name), dtype=float)
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "zones", tuple(self.zones))
        object.__setattr__(self, "horizon_steps",
                           tuple(float(t) for t in self.horizon_steps))
        self.validate()

    # -- derived structure -------------------------------------------------

    @property
    def subzones(self) -> tuple[SubzoneId, ...]:
        return tuple(self.subzone_to_zone.keys())

    @property
    def n_subzones(self) -> int:
        return len(self.subzone_to_zone)

    def subzone_indices(self, zone_ids) -> np.ndarray:
        """Row/column indices of all sub-zones belonging to ``zone_ids``."""
        wanted = set(zone_ids)
        unknown = wanted - set(self.zones)
        if unknown:
            raise ScenarioError(f"unknown zone ids: {sorted(unknown)}")
        return np.array([i for i, s in enumerate(self.subzones)
                         if self.subzone_to_zone[s] in wanted], dtype=int)

    def sigma_by_origin(self) -> np.ndarray:
        """Volatility matrix [n_sub x n_sub]: row i carries the volatility
        of origin sub-zone i's zone (all OD pairs leaving a zone share it)."""
        per_sub = np.array([self.zone_volatility[self.subzone_to_zone[s]]
                            for s in self.subzones])
        return np.repeat(per_sub[:, None], self.n_subzones, axis=1)

    # -- validation --------------------------------------------------------

    def validate(self):
        n = self.n_subzones
        if not self.zones:
            raise ScenarioError("zones is empty")
        if len(set(self.zones)) != len(self.zones):
            raise ScenarioError("zones has duplicate ids")
        # Sequences and matrix headers are written comma-joined on one line
        # and read back split on commas with each id stripped.
        for kind, ids in (("zone", self.zones), ("sub-zone", self.subzones)):
            for i in ids:
                if not (isinstance(i, str) and i.splitlines() == [i]
                        and "," not in i and i == i.strip()):
                    raise ScenarioError(
                        f"{kind} id {i!r} must be a non-empty string without "
                        f"',', a line break or leading or trailing whitespace")
        mapped = set(self.subzone_to_zone.values())
        orphans = mapped - set(self.zones)
        if orphans:
            raise ScenarioError(f"subzone_to_zone maps to unknown zones: {sorted(orphans)}")
        empty = set(self.zones) - mapped
        if empty:
            raise ScenarioError(f"zones without sub-zones: {sorted(empty)}")
        for name in _MATRIX_FIELDS:
            arr = getattr(self, name)
            if arr.shape != (n, n):
                raise ScenarioError(
                    f"{name} has shape {arr.shape}, expected ({n}, {n}) "
                    f"for {n} sub-zones")
            if np.any(arr < 0) or not np.all(np.isfinite(arr)):
                raise ScenarioError(f"{name} must be finite and >= 0")
        for name in _SCALAR_FIELDS + _COST_FIELDS:
            if not math.isfinite(getattr(self, name)):
                raise ScenarioError(f"{name} must be finite")
        if set(self.zone_volatility) != set(self.zones):
            raise ScenarioError("zone_volatility keys must equal zones")
        if not all(0 <= v < math.inf for v in self.zone_volatility.values()):
            raise ScenarioError("zone_volatility values must be finite and >= 0")
        if not 0.0 <= self.gamma <= 1.0:
            raise ScenarioError(f"gamma must be in [0, 1], got {self.gamma}")
        if self.discount_rate <= -1.0:
            raise ScenarioError("discount_rate must be > -1")
        if self.speed <= 0:
            raise ScenarioError("speed must be positive")
        steps = self.horizon_steps
        if not all(map(math.isfinite, steps)):
            raise ScenarioError("horizon_steps must be finite")
        if not steps or any(b <= a for a, b in zip(steps, steps[1:])):
            raise ScenarioError("horizon_steps must be strictly increasing")
        if steps[0] <= 0:
            raise ScenarioError("horizon_steps must start after t0 = 0")

    def __eq__(self, other):
        if not isinstance(other, Scenario):
            return NotImplemented
        pairs = ((getattr(self, f.name), getattr(other, f.name))
                 for f in fields(self))
        return all(np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b
                   for a, b in pairs)


# -- file I/O ----------------------------------------------------------------


def _read_matrix_csv(path: Path, expected: tuple[SubzoneId, ...],
                     field: str) -> np.ndarray:
    lines = [ln for ln in path.read_text().splitlines() if ln.strip()]
    if not lines:
        raise ScenarioError(f"{field} ({path}): empty matrix file")
    header = tuple(h.strip() for h in lines[0].split(","))
    if header != expected:
        raise ScenarioError(
            f"{field} ({path}): header {header} does not match sub-zones {expected}")
    rows = []
    for ln in lines[1:]:
        try:
            rows.append([float(v) for v in ln.split(",")])
        except ValueError as exc:
            raise ScenarioError(
                f"{field} ({path}): non-numeric value ({exc})") from None
    mat = np.array(rows, dtype=float)
    n = len(expected)
    if mat.shape != (n, n):
        raise ScenarioError(
            f"{field} ({path}): shape {mat.shape} does not match {n} sub-zones")
    return mat


def _write_matrix_csv(path: Path, subzones, mat: np.ndarray):
    lines = [",".join(subzones)]
    for row in mat:
        lines.append(",".join(repr(float(v)) for v in row))
    path.write_text("\n".join(lines) + "\n")


def _tiv_from_coordinates(coords: dict, subzones, speed: float) -> np.ndarray:
    pts = np.array([coords[s] for s in subzones], dtype=float)
    d = np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2))
    return d / speed * 60.0  # km / (km/hr) -> minutes


def load_scenario(path) -> Scenario:
    """Load a scenario from a JSON config referencing CSV matrices.

    Missing optional parameters take the standard defaults.  Cost thresholds
    may be given as numbers or omitted (or set to ``"derive"``) to be derived
    from the base demand.

    Raises
    ------
    ScenarioError
        On malformed files, matrix dimension mismatches, or any violated
        scenario invariant (the message names the offending field).
    """
    path = Path(path)
    try:
        cfg = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ScenarioError(f"cannot read scenario config {path}: {exc}") from None
    for key in ("zones", "subzone_to_zone", "base_demand", "zone_volatility"):
        if key not in cfg:
            raise ScenarioError(f"scenario config missing required key '{key}'")

    zones, subzone_to_zone = cfg["zones"], cfg["subzone_to_zone"]
    if not (isinstance(zones, list) and all(isinstance(z, str) for z in zones)):
        raise ScenarioError(f"zones must be a list of strings, got {zones!r}")
    if not (isinstance(subzone_to_zone, dict)
            and all(isinstance(z, str) for z in subzone_to_zone.values())):
        raise ScenarioError("subzone_to_zone must be an object of zone id "
                            f"strings, got {subzone_to_zone!r}")
    subzones = tuple(subzone_to_zone.keys())
    base = path.parent

    def matrix_of(key):
        val = cfg.get(key)
        if val is None:
            return None
        if isinstance(val, str):
            return _read_matrix_csv(base / val, subzones, key)
        if isinstance(val, (int, float)):
            return np.full((len(subzones), len(subzones)), float(val))
        return np.asarray(val, dtype=float)

    demand = matrix_of("base_demand")
    price = matrix_of("trip_price")
    tiv = matrix_of("in_vehicle_time")
    scalars = {key: _number(cfg.get(key, DEFAULTS[key]), key)
               for key in _SCALAR_FIELDS}
    if tiv is None and "subzone_coordinates" in cfg:
        tiv = _tiv_from_coordinates(cfg["subzone_coordinates"], subzones,
                                    scalars["speed"])
    if price is None:
        raise ScenarioError("scenario config missing 'trip_price'")
    if tiv is None:
        raise ScenarioError(
            "scenario config needs 'in_vehicle_time' or 'subzone_coordinates'")
    costs = [None if cfg.get(key) in (None, "derive") else _number(cfg[key], key)
             for key in _COST_FIELDS]
    steps = cfg.get("horizon_steps", DEFAULTS["horizon_steps"])
    if not isinstance(steps, (list, tuple)):
        raise ScenarioError(f"horizon_steps must be a list, got {steps!r}")

    scen = Scenario(
        zones=tuple(zones),
        subzone_to_zone=subzone_to_zone,
        base_demand=demand,
        trip_price=price,
        in_vehicle_time=tiv,
        zone_volatility={k: _number(v, f"zone_volatility[{k!r}]")
                         for k, v in cfg["zone_volatility"].items()},
        horizon_steps=tuple(_number(t, "horizon_steps") for t in steps),
        within_zone_cost=0.0,
        interzone_cost=0.0,
        **scalars,
    )
    if None in costs:
        costs = [d if c is None else c
                 for c, d in zip(costs, derive_cost_thresholds(scen))]
    return replace(scen, **dict(zip(_COST_FIELDS, costs)))


def _number(value, field) -> float:
    """A config value as a float; anything that is not a number raises a
    :class:`ScenarioError` naming ``field``."""
    try:
        return float(value)
    except (TypeError, ValueError):
        raise ScenarioError(
            f"{field} must be a number, got {value!r}") from None


def save_scenario(scenario: Scenario, path) -> None:
    """Write a scenario as JSON + CSV matrices so it round-trips through
    :func:`load_scenario`."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    stem = path.stem
    names = {}
    for key in _MATRIX_FIELDS:
        csv_name = f"{stem}_{key}.csv"
        _write_matrix_csv(path.parent / csv_name, scenario.subzones,
                          getattr(scenario, key))
        names[key] = csv_name
    cfg = {
        "zones": list(scenario.zones),
        "subzone_to_zone": scenario.subzone_to_zone,
        "zone_volatility": scenario.zone_volatility,
        "horizon_steps": list(scenario.horizon_steps),
        **{key: getattr(scenario, key) for key in _SCALAR_FIELDS + _COST_FIELDS},
        **names,
    }
    path.write_text(json.dumps(cfg, indent=2, sort_keys=True) + "\n")


# -- cost thresholds ---------------------------------------------------------

def derive_cost_thresholds(scenario: Scenario) -> tuple[float, float]:
    """Ridership cost thresholds ``(within, inter)`` from one equilibrium
    solve over the full region at the base (t0) demand.

    ``within``: 40% of the average aggregate within-zone equilibrium
    ridership across zones.  ``inter``: average aggregate equilibrium
    ridership between ordered zone pairs (0 for a single zone).
    """
    if not scenario.base_demand.any():
        warnings.warn("all-zero base demand: cost thresholds are 0")
        return 0.0, 0.0
    from .ridership import equilibrium_ridership

    lam = equilibrium_ridership(scenario.base_demand, scenario).od_ridership
    groups = [scenario.subzone_indices([z]) for z in scenario.zones]
    per_zone = [lam[np.ix_(g, g)].sum() for g in groups]
    pairs = [lam[np.ix_(g, h)].sum()
             for i, g in enumerate(groups)
             for j, h in enumerate(groups) if i != j]
    return (0.4 * float(np.mean(per_zone)),
            float(np.mean(pairs)) if pairs else 0.0)


# -- synthetic scenarios -----------------------------------------------------

def generate_synthetic_scenario(seed: int, n_zones: int, subzones_per_zone: int,
                                demand_scale: float) -> Scenario:
    """Deterministic synthetic scenario for experiments.

    Zones sit on a ring with jittered sub-zone centroids; demand is a
    gravity-style product of seeded sub-zone attractiveness factors scaled so
    entries average roughly ``demand_scale`` trips/hour.  Per-zone volatility
    is drawn from the standard 5%..40% grid.  Pure function of its arguments.
    """
    if n_zones < 1 or subzones_per_zone < 1:
        raise ValueError("n_zones and subzones_per_zone must be >= 1")
    if demand_scale < 0:
        raise ValueError("demand_scale must be >= 0")
    rng = np.random.default_rng(seed)
    zones = tuple(f"z{k:02d}" for k in range(1, n_zones + 1))
    subzone_to_zone: dict[str, str] = {}
    coords = {}
    radius = 3.0 + 0.8 * n_zones  # km; keeps zone centers ~spread regardless of H
    for k, z in enumerate(zones):
        angle = 2 * np.pi * k / n_zones
        center = radius * np.array([np.cos(angle), np.sin(angle)])
        for j in range(1, subzones_per_zone + 1):
            s = f"{z}s{j:02d}"
            subzone_to_zone[s] = z
            coords[s] = center + rng.uniform(-1.5, 1.5, size=2)
    subzones = tuple(subzone_to_zone.keys())
    n = len(subzones)

    attract = rng.uniform(0.4, 1.3, size=n)
    noise = rng.uniform(0.7, 1.3, size=(n, n))
    demand = demand_scale * np.outer(attract, attract) * noise

    tiv = _tiv_from_coordinates(coords, subzones, DEFAULTS["speed"])
    tiv = tiv + np.diag(np.full(n, 3.0))  # minimal within-sub-zone trip time
    price = np.full((n, n), 2.42)
    vol = {z: float(rng.choice(VOLATILITY_CHOICES)) for z in zones}

    scen = Scenario(
        zones=zones,
        subzone_to_zone=subzone_to_zone,
        base_demand=demand,
        trip_price=price,
        in_vehicle_time=tiv,
        zone_volatility=vol,
        within_zone_cost=0.0,
        interzone_cost=0.0,
        horizon_steps=DEFAULTS["horizon_steps"],
        **{k: DEFAULTS[k] for k in _SCALAR_FIELDS},
    )
    with warnings.catch_warnings():
        if demand_scale == 0:
            warnings.simplefilter("ignore")
        cwz, ciz = derive_cost_thresholds(scen)
    return replace(scen, within_zone_cost=cwz, interzone_cost=ciz)
