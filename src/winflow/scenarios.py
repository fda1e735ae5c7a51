"""Scenario files: flat typed key-value sections, one section per scenario.

The configuration format is INI; every key is typed by the schema below and
units are explicit at this boundary (Mbps, ms, Mb).  There are no implicit
defaults for the window, the delay, epsilon or the seed: reproducibility
demands that they be written down.

Example::

    [vbr-curves]
    kind = service-curve
    seed = 1
    service = exponential
    service_rate_mbps = 1000
    w_over_d_mbps = 100
    d_ms = 1 2 5 10
    epsilon = 1e-6
    horizon_ms = 100

Supported ``service`` values: deterministic, exponential, mmoo, leftover
(deterministic base with exponential cross traffic).  Supported ``arrival``
values: exponential, deterministic.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from . import units
from .bounds import _CURVE_BLOCK_ENTRIES, THETA_MAX, THETA_MIN, THETA_POINTS
from .models import (
    DeterministicService,
    ExponentialArrivals,
    ExponentialVbrService,
    LeftoverService,
    MarkovModulated2Service,
    MmooService,
)

__all__ = ["MAX_SLOTS", "Scenario", "ScenarioError", "load_scenarios", "parse_scenario_text"]

KINDS = ("service-curve", "effective-capacity", "backlog", "simulate")

# Upper limit on every slot count a scenario names (delays, horizons and
# simulated slots over all replications), checked before anything is
# allocated.  The canned studies, the tests and the benchmark workloads stay
# at or below 10**6.
MAX_SLOTS = 10**7

# Smallest theta_min times the slowest per-slot rate (the service mean and
# every w/d).  Below it the On-Off and censored-exponential transforms lose
# about ulp / (theta * rate) of relative accuracy; at it the worst relative
# error is about 2e-7.
MIN_THETA_RATE = 1e-9


class ScenarioError(ValueError):
    """Configuration error carrying the section and key that caused it; either
    is empty where the INI structure error names none."""

    def __init__(self, section: str, key: str, message: str):
        where = f"[{section}] {key}".rstrip() if section else key
        super().__init__(f"{where}: {message}" if where else message)
        self.section = section
        self.key = key


@dataclass
class Scenario:
    """One resolved experiment; all quantities already in internal units."""

    name: str
    kind: str
    seed: int
    slot_ms: float
    service: object
    d_slots: List[int] = field(default_factory=list)
    w_mb: List[float] = field(default_factory=list)
    epsilon: float = 1e-6
    epsilons: List[float] = field(default_factory=list)
    horizon_slots: int = 0
    theta_min: float = THETA_MIN
    theta_max: float = THETA_MAX
    theta_points: int = THETA_POINTS
    arrivals: Optional[object] = None
    lambdas_mb: List[float] = field(default_factory=list)
    total_slots: int = 0
    warmup_slots: int = 0
    replications: int = 1
    simulate: bool = False


class _Section:
    def __init__(self, name: str, raw: Dict[str, str]):
        self.name = name
        self.raw = dict(raw)
        self.used: set[str] = set()

    def has(self, key: str) -> bool:
        return key in self.raw

    def _fetch(self, key: str) -> str:
        if key not in self.raw:
            raise ScenarioError(self.name, key, "required key is missing")
        self.used.add(key)
        return self.raw[key]

    def text(self, key: str, choices=None) -> str:
        value = self._fetch(key).strip()
        if choices is not None and value not in choices:
            raise ScenarioError(self.name, key, f"must be one of {sorted(choices)}, got {value!r}")
        return value

    def real(self, key: str, default: Optional[float] = None, positive: bool = False) -> float:
        if key not in self.raw and default is not None:
            return default
        return self._number(key, self._fetch(key), positive)

    def _number(self, key: str, raw: str, positive: bool) -> float:
        try:
            value = float(raw)
        except ValueError as exc:
            raise ScenarioError(self.name, key, f"not a number: {raw!r}") from exc
        if not math.isfinite(value):
            raise ScenarioError(self.name, key, f"must be finite, got {raw.strip()!r}")
        if positive and value <= 0:
            raise ScenarioError(self.name, key, "must be > 0")
        return value

    def integer(
        self,
        key: str,
        default: Optional[int] = None,
        minimum: Optional[int] = None,
        maximum: Optional[int] = None,
    ) -> int:
        if key not in self.raw and default is not None:
            return default
        raw = self._fetch(key)
        try:
            value = int(raw)
        except ValueError as exc:
            raise ScenarioError(self.name, key, f"not an integer: {raw!r}") from exc
        if minimum is not None and value < minimum:
            raise ScenarioError(self.name, key, f"must be >= {minimum}")
        if maximum is not None and value > maximum:
            raise ScenarioError(self.name, key, f"must be <= {maximum}")
        return value

    def reals(self, key: str, positive: bool = False) -> List[float]:
        tokens = self._fetch(key).split()
        if not tokens:
            raise ScenarioError(self.name, key, "empty list")
        return [self._number(key, tok, positive) for tok in tokens]

    def rates(self, key: str, slot_ms: float, single: bool = False) -> List[float]:
        """Positive rates in Mbps (a list, or ``single`` value), in megabits per slot."""
        mbps = [self.real(key, positive=True)] if single else self.reals(key, positive=True)
        return self.converted(key, [units.mbps_to_mb_per_slot(r, slot_ms) for r in mbps])

    def rate(self, key: str, slot_ms: float) -> float:
        return self.rates(key, slot_ms, single=True)[0]

    def converted(self, key: str, values: List[float]) -> List[float]:
        # a conversion can underflow to 0 or overflow to inf
        if not all(0.0 < value < math.inf for value in values):
            raise ScenarioError(self.name, key, "must be finite and > 0 after unit conversion")
        return values

    def slots(self, key: str, duration_ms: float, slot_ms: float) -> int:
        """A duration in ms as a whole number of slots, from 1 to MAX_SLOTS."""
        if duration_ms / slot_ms > MAX_SLOTS:
            raise ScenarioError(self.name, key, f"must be at most {MAX_SLOTS} slots")
        try:
            slots = units.ms_to_slots(duration_ms, slot_ms)
        except ValueError as exc:
            raise ScenarioError(self.name, key, str(exc)) from exc
        if slots < 1:
            raise ScenarioError(self.name, key, "must be at least one slot")
        return slots

    def probability(self, key: str) -> float:
        value = self.real(key)
        if not 0.0 <= value <= 1.0:
            raise ScenarioError(self.name, key, "must lie in [0, 1]")
        return value

    def flag(self, key: str, default: bool = False) -> bool:
        if key not in self.raw:
            return default
        value = self._fetch(key).strip().lower()
        if value not in configparser.ConfigParser.BOOLEAN_STATES:
            raise ScenarioError(self.name, key, f"not a boolean: {value!r}")
        return configparser.ConfigParser.BOOLEAN_STATES[value]

    def reject_unknown(self):
        unknown = set(self.raw) - self.used
        if unknown:
            raise ScenarioError(self.name, sorted(unknown)[0], "unknown key")


def _build_service(sec: _Section, slot_ms: float):
    kind = sec.text("service", choices={"deterministic", "exponential", "mmoo", "leftover"})
    if kind == "deterministic":
        return DeterministicService(sec.rate("service_rate_mbps", slot_ms))
    if kind == "exponential":
        return ExponentialVbrService(sec.rate("service_rate_mbps", slot_ms))
    if kind == "mmoo":
        p00, p11 = sec.probability("mmoo_p00"), sec.probability("mmoo_p11")
        if p00 == p11 == 1.0:
            raise ScenarioError(
                sec.name, "mmoo_p11", "mmoo_p00 = mmoo_p11 = 1 leaves no unique steady state"
            )
        return MmooService(p00=p00, p11=p11, peak=sec.rate("mmoo_peak_mbps", slot_ms))
    base = DeterministicService(sec.rate("service_rate_mbps", slot_ms))
    service = LeftoverService(base, ExponentialArrivals(sec.rate("cross_rate_mbps", slot_ms)))
    if not service.is_stable:
        raise ScenarioError(sec.name, "cross_rate_mbps", "must be below service_rate_mbps")
    return service


def _build_arrivals(sec: _Section, slot_ms: float):
    kind = sec.text("arrival", choices={"deterministic", "exponential"})
    rate = sec.rate("arrival_rate_mbps", slot_ms)
    if kind == "deterministic":
        return DeterministicService(rate)
    return ExponentialArrivals(rate)


def _check_epsilons(sec: _Section, key: str, values: List[float]) -> None:
    if not all(0.0 < eps < 1.0 for eps in values):
        raise ScenarioError(sec.name, key, "must lie strictly between 0 and 1")
    # each epsilon labels its own output column
    if len(set(values)) != len(values):
        raise ScenarioError(sec.name, key, "epsilons must be distinct")


def _run_keys(sec: _Section, out: Scenario, slots_key: str, warmup_key: str, count_key: str) -> None:
    out.total_slots = sec.integer(slots_key, minimum=2, maximum=MAX_SLOTS)
    # the drift ratio compares two halves of at least one slot each
    out.warmup_slots = sec.integer(warmup_key, minimum=0, maximum=out.total_slots - 2)
    # bounds the simulated slots over all replications; the backlog
    # quantiles hold them all at once
    out.replications = sec.integer(count_key, default=1, minimum=1)
    if out.replications * out.total_slots > MAX_SLOTS:
        raise ScenarioError(sec.name, count_key, f"slots times replications must be at most {MAX_SLOTS}")


def _feedback_lists(sec: _Section, slot_ms: float) -> tuple[List[int], List[float]]:
    d_slots = [sec.slots("d_ms", d, slot_ms) for d in sec.reals("d_ms", positive=True)]
    # each delay names its own output file or column
    if len(set(d_slots)) != len(d_slots):
        raise ScenarioError(sec.name, "d_ms", "delays must be distinct")
    if sec.has("w_over_d_mbps") and sec.has("w_mb"):
        raise ScenarioError(sec.name, "w_mb", "give either w_mb or w_over_d_mbps, not both")
    if sec.has("w_over_d_mbps"):
        ratio = sec.rate("w_over_d_mbps", slot_ms)
        w_mb = sec.converted("w_over_d_mbps", [ratio * d for d in d_slots])
    else:
        w_mb = sec.reals("w_mb", positive=True)
        if len(w_mb) != len(d_slots):
            raise ScenarioError(sec.name, "w_mb", "needs one window per delay entry")
    return d_slots, w_mb


def _theta_spec(sec: _Section, slowest_rate: float) -> tuple[float, float, int]:
    tmin = sec.real("theta_min_per_mb", default=THETA_MIN, positive=True)
    if tmin * slowest_rate < MIN_THETA_RATE:
        raise ScenarioError(
            sec.name, "theta_min_per_mb",
            f"times the smallest of the mean service rate and w/d, in Mb per slot, "
            f"must be at least {MIN_THETA_RATE:g}",
        )
    tmax = sec.real("theta_max_per_mb", default=THETA_MAX, positive=True)
    # a wider grid would overrun the memory bound of one service-curve block
    points = sec.integer("theta_points", default=THETA_POINTS, minimum=2, maximum=_CURVE_BLOCK_ENTRIES)
    if tmax <= tmin:
        raise ScenarioError(sec.name, "theta_max_per_mb", "must exceed theta_min_per_mb")
    return tmin, tmax, points


def _parse_section(name: str, raw: Dict[str, str]) -> Scenario:
    sec = _Section(name, raw)
    kind = sec.text("kind", choices=set(KINDS))
    seed = sec.integer("seed", minimum=0)
    slot_ms = sec.real("slot_ms", default=1.0, positive=True)
    service = _build_service(sec, slot_ms)
    out = Scenario(name=name, kind=kind, seed=seed, slot_ms=slot_ms, service=service)
    # the analytic bounds of an On-Off chain are spectral; simulation is not
    markov = isinstance(service, MarkovModulated2Service)
    if kind != "simulate" and markov and service.mean_rate == 0.0:
        raise ScenarioError(
            name, "mmoo_p00", "mmoo_p00 = 1 makes OFF absorbing, so the mean service rate is 0"
        )
    if kind != "simulate" and markov and not service.is_slow_switching:
        raise ScenarioError(
            name, "mmoo_p11", "mmoo_p00 + mmoo_p11 must exceed 1 (p01 + p10 < 1)"
        )

    out.d_slots, out.w_mb = _feedback_lists(sec, slot_ms)
    if kind in ("backlog", "simulate") and len(out.d_slots) != 1:
        raise ScenarioError(name, "d_ms", f"{kind} scenarios take one (w, d) pair")
    if kind != "simulate":
        slowest = min([service.mean_rate] + [w / d for w, d in zip(out.w_mb, out.d_slots)])
        out.theta_min, out.theta_max, out.theta_points = _theta_spec(sec, slowest)
    if kind == "service-curve":
        out.epsilon = sec.real("epsilon")
        _check_epsilons(sec, "epsilon", [out.epsilon])
        out.horizon_slots = sec.slots("horizon_ms", sec.real("horizon_ms", positive=True), slot_ms)
    elif kind == "backlog":
        out.epsilons = sec.reals("epsilons")
        _check_epsilons(sec, "epsilons", out.epsilons)
        out.lambdas_mb = sec.rates("lambda_mbps", slot_ms)
        out.simulate = sec.flag("simulate", default=False)
        if out.simulate:
            _run_keys(sec, out, "sim_slots", "sim_warmup", "sim_replications")
    elif kind == "simulate":
        out.arrivals = _build_arrivals(sec, slot_ms)
        _run_keys(sec, out, "total_slots", "warmup_slots", "replications")
    sec.reject_unknown()
    return out


def parse_scenario_text(text: str) -> List[Scenario]:
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(text)
    except configparser.DuplicateOptionError as exc:
        raise ScenarioError(exc.section, exc.option, f"repeated key on line {exc.lineno}") from exc
    except configparser.DuplicateSectionError as exc:
        raise ScenarioError(exc.section, "", f"repeated section on line {exc.lineno}") from exc
    except configparser.Error as exc:
        # text before the first section header, or a line that is not key = value
        raise ScenarioError("", "", " ".join(exc.message.split())) from exc
    return [_parse_section(name, dict(parser[name])) for name in parser.sections()]


def load_scenarios(path: str) -> List[Scenario]:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_scenario_text(handle.read())


# ---------------------------------------------------------------------------
# canned parameter studies reproducing the standard evaluation figures
# ---------------------------------------------------------------------------

_SERVERS = {
    "vbr": "service = exponential\nservice_rate_mbps = 1000",
    "mmoo": "service = mmoo\nmmoo_p00 = 0.2\nmmoo_p11 = 0.9\nmmoo_peak_mbps = 1125",
}

# study: (kind, keys shared by every panel)
_STUDIES = {
    "curves": ("service-curve", "d_ms = 1 2 5 10\nepsilon = 1e-6\nhorizon_ms = 100"),
    "effcap": ("effective-capacity", "d_ms = 1 2 5 10"),
    "backlog": ("backlog", "d_ms = 1\nepsilons = 1e-3 1e-6 1e-9"),
}

_W_OVER_D = ("w_over_d_mbps = 100", "w_over_d_mbps = 500")

# figure: (server, study, keys of panel a at w/d = 100 Mbps and of panel b
# at 500 Mbps); panel p of the figure with index i has seed 20211 + 2 i + p
_FIGURES = {
    "fig4": ("vbr", "curves", _W_OVER_D),
    "fig5": ("vbr", "effcap", _W_OVER_D),
    "fig6": ("mmoo", "curves", _W_OVER_D),
    "fig7": ("mmoo", "effcap", _W_OVER_D),
    "fig8": (
        "vbr",
        "backlog",
        (
            "w_mb = 0.1\nlambda_mbps = 10 20 30 40 50 60 70 80 85 90 92 94",
            "w_mb = 0.5\nlambda_mbps = 50 100 150 200 250 300 330 360 380 390",
        ),
    ),
}


def _canned_text(index: int, figure: str) -> str:
    server, study, panels = _FIGURES[figure]
    kind, shared = _STUDIES[study]
    return "".join(
        f"\n[{figure}{'ab'[p]}-{server}-{study}-{ratio}]\nkind = {kind}\n"
        f"seed = {20211 + 2 * index + p}\n{_SERVERS[server]}\n{shared}\n{keys}\n"
        for p, (ratio, keys) in enumerate(zip((100, 500), panels))
    )


CANNED: Dict[str, str] = {figure: _canned_text(i, figure) for i, figure in enumerate(_FIGURES)}


def canned_scenarios(figure: str) -> List[Scenario]:
    if figure not in CANNED:
        raise ValueError(f"unknown canned study {figure!r}; choose from {sorted(CANNED)}")
    return parse_scenario_text(CANNED[figure])
