"""Energy and carbon accounting for metered pipeline spans.

Three interchangeable sources: OS powercap counters (real CPU/RAM energy),
a constant-power model (portable), and trace replay (deterministic tests).
Spans never nest; the measured workload must be the only active compute.
"""

from __future__ import annotations

import csv
import dataclasses
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

DOMAINS = ("cpu", "ram", "gpu")
JOULES_PER_KWH = 3.6e6
DEFAULT_CARBON_INTENSITY = 0.475  # kgCO2e/kWh, configurable placeholder


class MeterError(Exception):
    pass


class MeterUsageError(MeterError):
    """Span protocol violated (nested or mismatched spans)."""


class MeterSourceError(MeterError):
    """Underlying power source unavailable or unreadable."""


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
    sampling_interval_s: float = 0.1
    constant_watts: dict[str, float] = field(
        default_factory=lambda: {"cpu": 15.0, "ram": 3.0, "gpu": 0.0}
    )
    trace_path: str | None = None
    powercap_paths: dict[str, str] = field(default_factory=dict)  # domain -> counter file
    carbon_intensity: float = DEFAULT_CARBON_INTENSITY

    def __post_init__(self):
        if self.sampling_interval_s <= 0:
            raise MeterError("sampling_interval_s must be > 0")


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
        raise MeterSourceError(
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


class SpanHandle:
    def __init__(self, started: float, state):
        self.started = started
        self.state = state
        self.open = True


class Meter:
    def __init__(self, config: MeterConfig, clock=time.monotonic):
        self.config = config
        self.clock = clock
        self._active: SpanHandle | None = None
        if config.source not in ("powercap", "constant-power", "trace-replay"):
            raise MeterError(f"unknown meter source {config.source!r}")
        if config.source == "trace-replay":
            if not config.trace_path:
                raise MeterError("trace-replay source needs trace_path")
            self._trace_joules = integrate(load_trace(config.trace_path))

    def start_span(self) -> SpanHandle:
        if self._active is not None and self._active.open:
            raise MeterUsageError("spans do not nest: a span is already active")
        started = self.clock()
        state = None
        if self.config.source == "powercap":
            state = _PowercapSampler(self.config)
            state.start()
        handle = SpanHandle(started, state)
        self._active = handle
        return handle

    def stop_span(self, handle: SpanHandle) -> EnergyReport:
        if not handle.open:
            raise MeterUsageError("span already stopped")
        handle.open = False
        self._active = None
        duration = self.clock() - handle.started
        joules = {d: 0.0 for d in DOMAINS}
        if self.config.source == "constant-power":
            for d, w in self.config.constant_watts.items():
                joules[d] = w * duration
        elif self.config.source == "trace-replay":
            joules.update(self._trace_joules)
        else:
            joules.update(handle.state.stop())
        return EnergyReport(
            joules=joules, duration_s=duration,
            carbon_intensity=self.config.carbon_intensity,
        )


class _PowercapSampler:
    """Samples microjoule counters on a background thread so wraparounds
    between start and stop are caught at the configured interval."""

    def __init__(self, config: MeterConfig):
        if not config.powercap_paths:
            raise MeterSourceError(
                "powercap source needs powercap_paths; "
                "fall back to the constant-power source"
            )
        self.paths = dict(config.powercap_paths)
        self.interval = config.sampling_interval_s
        self.max_range = {}
        self.last = {}
        self.acc_uj = {}
        for domain, path in self.paths.items():
            p = Path(path)
            self.max_range[domain] = read_powercap_counter(p.parent / f"max_{p.name}_range")
            self.last[domain] = read_powercap_counter(path)
            self.acc_uj[domain] = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _poll(self):
        for domain, path in self.paths.items():
            curr = read_powercap_counter(path)
            self.acc_uj[domain] += counter_delta(self.last[domain], curr, self.max_range[domain])
            self.last[domain] = curr

    def _run(self):
        while not self._stop.wait(self.interval):
            self._poll()

    def start(self):
        self._thread.start()

    def stop(self) -> dict[str, float]:
        self._stop.set()
        self._thread.join()
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
    return EnergyReport(
        joules=dict(d["joules"]),
        duration_s=d["duration_s"],
        carbon_intensity=d.get("carbon_intensity", DEFAULT_CARBON_INTENSITY),
    )


def meter_from_spec(spec: str, config: MeterConfig | None = None) -> Meter:
    """Build a meter from a CLI-style spec: powercap | constant | trace:<path>."""
    base = config or MeterConfig()
    if spec == "constant":
        changes = {"source": "constant-power"}
    elif spec == "powercap":
        changes = {"source": "powercap"}
    elif spec.startswith("trace:"):
        changes = {"source": "trace-replay", "trace_path": spec.split(":", 1)[1]}
    else:
        raise MeterError(f"bad meter spec {spec!r}")
    return Meter(dataclasses.replace(base, **changes))
