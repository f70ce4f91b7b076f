"""Energy and carbon accounting for metered pipeline spans.

Three interchangeable sources: OS powercap counters (real CPU/RAM energy),
a constant-power model (portable), and trace replay (deterministic tests).
Spans never nest; the measured workload must be the only active compute.
"""

from __future__ import annotations

import csv
import dataclasses
import math
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from .tensors import check_types, fits, from_fields

DOMAINS = ("cpu", "ram", "gpu")
JOULES_PER_KWH = 3.6e6
DEFAULT_CARBON_INTENSITY = 0.475  # kgCO2e/kWh, configurable placeholder
# How often a powercap span reads its counters. It only has to be far below
# a counter's wrap period, which is minutes at any real power draw.
SAMPLING_INTERVAL_S = 0.1


class MeterError(Exception):
    """A bad meter setting, or a power source that cannot be read."""


@dataclass(frozen=True)
class PowerSample:
    timestamp: float  # seconds, monotonic
    watts: float
    domain: str


@dataclass
class EnergyReport:
    joules: dict[str, float]
    duration_s: float
    carbon_intensity: float = DEFAULT_CARBON_INTENSITY

    @property
    def total_joules(self) -> float:
        return sum(self.joules.values())

    @property
    def kwh(self) -> float:
        return self.total_joules / JOULES_PER_KWH

    @property
    def co2e_kg(self) -> float:
        return self.kwh * self.carbon_intensity

    def to_dict(self) -> dict:
        return {
            "joules": dict(self.joules),
            "total_joules": self.total_joules,
            "duration_s": self.duration_s,
            "kwh": self.kwh,
            "co2e_kg": self.co2e_kg,
            "carbon_intensity": self.carbon_intensity,
        }


@dataclass
class MeterConfig:
    source: str = "constant-power"  # "powercap" | "constant-power" | "trace-replay"
    constant_watts: dict[str, float] = field(
        default_factory=lambda: {"cpu": 15.0, "ram": 3.0, "gpu": 0.0}
    )
    trace_path: str | None = None
    powercap_paths: dict[str, str] = field(default_factory=dict)  # domain -> counter file
    carbon_intensity: float = DEFAULT_CARBON_INTENSITY


def integrate(samples: list[PowerSample]) -> dict[str, float]:
    """Trapezoidal joules per domain; a single sample integrates to 0."""
    by_domain: dict[str, list[PowerSample]] = {}
    for s in samples:
        by_domain.setdefault(s.domain, []).append(s)
    joules = {}
    for domain, ss in by_domain.items():
        total = 0.0
        for prev, cur in zip(ss, ss[1:]):
            dt = cur.timestamp - prev.timestamp
            if dt < 0:
                raise MeterError(f"decreasing timestamps in domain {domain!r}")
            total += 0.5 * (prev.watts + cur.watts) * dt
        joules[domain] = total
    return joules


def read_powercap_counter(path) -> int:
    """Read a microjoule counter file (a single non-negative integer)."""
    try:
        return int(Path(path).read_text().strip())
    except (OSError, ValueError) as e:
        raise MeterError(
            f"cannot read powercap counter {path}: {e}; "
            "fall back to the constant-power source"
        ) from e


def counter_delta(prev: int, curr: int, max_range: int) -> int:
    """Wraparound-safe delta of a monotonic counter; never negative."""
    if curr >= prev:
        return curr - prev
    return (max_range - prev) + curr


def load_trace(path) -> list[PowerSample]:
    samples = []
    with open(path, newline="") as f:
        for row in csv.reader(f):
            if not row or row[0].strip().startswith("#"):
                continue
            if row[0].strip() == "timestamp_s":  # optional header
                continue
            t, domain, watts = row
            samples.append(PowerSample(float(t), float(watts), domain.strip()))
    return samples


class Meter:
    def __init__(self, config: MeterConfig, clock=time.monotonic):
        self.config = config
        self.clock = clock
        # the open span: (start time, powercap sampler or None)
        self._active: tuple | None = None
        check_types(MeterConfig, vars(config), MeterError)
        if config.source not in ("powercap", "constant-power", "trace-replay"):
            raise MeterError(f"unknown meter source {config.source!r}")
        if not config.carbon_intensity >= 0:
            raise MeterError(f"carbon_intensity must be a finite number >= 0, "
                             f"got {config.carbon_intensity!r}")
        # a domain outside DOMAINS would count in total_joules but have no report column
        for name in ("constant_watts", "powercap_paths"):
            by_domain = getattr(config, name)
            if not set(by_domain) <= set(DOMAINS):
                raise MeterError(f"{name} must map domains among {DOMAINS}, got {by_domain!r}")
        if config.source == "powercap" and not config.powercap_paths:
            raise MeterError(
                "powercap source needs powercap_paths; "
                "fall back to the constant-power source"
            )
        # A source that can only report 0 J or less would fail the run at
        # ranking, after every span. Powercap counters cannot be checked up front.
        if config.source == "constant-power":
            watts = config.constant_watts
            if not all(w >= 0 for w in watts.values()):
                raise MeterError(f"constant_watts must map domains to finite watts >= 0, "
                                 f"got {watts!r}")
            if not sum(watts.values()) > 0:
                raise MeterError(f"constant_watts must sum to more than 0 W, got {watts!r}")
        if config.source == "trace-replay":
            if not config.trace_path:
                raise MeterError("trace-replay source needs trace_path")
            try:
                samples = load_trace(config.trace_path)
            except (OSError, ValueError) as e:
                raise MeterError(f"cannot read trace {config.trace_path}: {e}") from e
            self._trace_joules = integrate(samples)
            if not set(self._trace_joules) <= set(DOMAINS):
                raise MeterError(f"trace {config.trace_path} has domains "
                                 f"{sorted(self._trace_joules)}, not all among {DOMAINS}")
            total = sum(self._trace_joules.values())
            if not (math.isfinite(total) and total > 0):
                raise MeterError(f"trace {config.trace_path} integrates to {total} J, "
                                 "not a finite energy above 0")

    def start_span(self) -> None:
        """Opens the span `stop_span` closes; a span already open is a bug."""
        if self._active is not None:
            raise RuntimeError("spans do not nest: a span is already active")
        started = self.clock()
        self._active = (started, _PowercapSampler(self.config.powercap_paths)
                        if self.config.source == "powercap" else None)

    def stop_span(self) -> EnergyReport:
        """Closes the open span and returns its energy; no open span is a bug."""
        if self._active is None:
            raise RuntimeError("no span is active")
        (started, sampler), self._active = self._active, None
        duration = self.clock() - started
        joules = {d: 0.0 for d in DOMAINS}
        if self.config.source == "constant-power":
            for d, w in self.config.constant_watts.items():
                joules[d] = w * duration
        elif self.config.source == "trace-replay":
            joules.update(self._trace_joules)
        else:
            joules.update(sampler.stop())
        return EnergyReport(
            joules=joules, duration_s=duration,
            carbon_intensity=self.config.carbon_intensity,
        )

    def measure(self, fn, *args):
        """Runs `fn(*args)` in one span and returns (result, EnergyReport).
        The span closes, and a powercap sampler thread is joined, however
        `fn` exits."""
        self.start_span()
        try:
            result = fn(*args)
        finally:
            energy = self.stop_span()
        return result, energy


class _PowercapSampler:
    """Samples microjoule counters on a background thread every
    SAMPLING_INTERVAL_S from its creation to `stop`, so each wraparound in
    between is caught. A failed read ends the thread, and `stop` raises it:
    the wraps after it would go uncounted."""

    def __init__(self, paths: dict[str, str]):
        self.paths = dict(paths)
        self.max_range = {}
        self.last = {}
        self.acc_uj = {}
        for domain, path in self.paths.items():
            # a powercap zone holds energy_uj and its wrap value max_energy_range_uj
            self.max_range[domain] = read_powercap_counter(Path(path).parent
                                                           / "max_energy_range_uj")
            self.last[domain] = read_powercap_counter(path)
            self.acc_uj[domain] = 0
        self._stop = threading.Event()
        self._error: Exception | None = None
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()

    def _poll(self):
        for domain, path in self.paths.items():
            curr = read_powercap_counter(path)
            self.acc_uj[domain] += counter_delta(self.last[domain], curr, self.max_range[domain])
            self.last[domain] = curr

    def _run(self):
        try:
            while not self._stop.wait(SAMPLING_INTERVAL_S):
                self._poll()
        except Exception as e:  # stop() raises it in the thread that reads the span
            self._error = e

    def stop(self) -> dict[str, float]:
        self._stop.set()
        self._thread.join()
        if self._error is not None:
            raise self._error
        self._poll()
        return {d: uj / 1e6 for d, uj in self.acc_uj.items()}


def combine_reports(reports: list[EnergyReport]) -> EnergyReport:
    """Sum of sequential span reports (joules per domain, durations)."""
    if not reports:
        raise MeterError("no reports to combine")
    joules: dict[str, float] = {}
    for rep in reports:
        for d, j in rep.joules.items():
            joules[d] = joules.get(d, 0.0) + j
    return EnergyReport(
        joules=joules,
        duration_s=sum(r.duration_s for r in reports),
        carbon_intensity=reports[0].carbon_intensity,
    )


def report_from_dict(d: dict) -> EnergyReport:
    """The report `EnergyReport.to_dict` wrote: its six keys, with a finite
    number wherever a number goes. Anything else is a ValueError or TypeError."""
    keys = ["carbon_intensity", "co2e_kg", "duration_s", "joules", "kwh", "total_joules"]
    if not (isinstance(d, dict) and sorted(d) == keys
            and all(fits(d[k], float) for k in ("co2e_kg", "kwh", "total_joules"))):
        raise ValueError(f"not an energy report with keys {keys} and finite numbers: {d!r}")
    return from_fields(EnergyReport, {k: d[k] for k in ("carbon_intensity", "duration_s",
                                                        "joules")})


def meter_from_spec(spec: str, config: MeterConfig) -> Meter:
    """`config`'s meter with the source a CLI-style spec names:
    powercap | constant | trace:<path>."""
    if spec == "constant":
        changes = {"source": "constant-power"}
    elif spec == "powercap":
        changes = {"source": "powercap"}
    elif spec.startswith("trace:"):
        changes = {"source": "trace-replay", "trace_path": spec.split(":", 1)[1]}
    else:
        raise MeterError(f"bad meter spec {spec!r}")
    return Meter(dataclasses.replace(config, **changes))
