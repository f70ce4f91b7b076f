import os
import threading
import time

import numpy as np
import pytest

from ealm import cli
from ealm import meter as meter_mod
from ealm import pipeline as pl
from ealm.meter import (
    EnergyReport,
    Meter,
    MeterConfig,
    MeterError,
    PowerSample,
    combine_reports,
    counter_delta,
    integrate,
    load_trace,
    meter_from_spec,
    read_powercap_counter,
    report_from_dict,
)


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def advance(self, dt):
        self.t += dt

    def __call__(self):
        return self.t


def test_trapezoid_simple_cases():
    assert integrate([]) == {}
    assert integrate([PowerSample(0.0, 10.0, "cpu")])["cpu"] == 0.0
    j = integrate([PowerSample(0.0, 0.0, "cpu"), PowerSample(1.0, 10.0, "cpu")])
    assert j["cpu"] == pytest.approx(5.0, abs=1e-12)
    # constant power: exactly W * dt
    j = integrate([PowerSample(0.0, 4.0, "ram"), PowerSample(2.5, 4.0, "ram")])
    assert j["ram"] == pytest.approx(10.0, abs=1e-12)


def test_trapezoid_exact_on_linear_ramp():
    # p(t) = 3t over [0, 10]: closed form is 150 J; the trapezoid rule is
    # exact for linear integrands regardless of step placement
    ts = np.sort(np.random.default_rng(1).uniform(0, 10, size=200))
    ts[0], ts[-1] = 0.0, 10.0
    samples = [PowerSample(float(t), 3.0 * float(t), "cpu") for t in ts]
    assert integrate(samples)["cpu"] == pytest.approx(150.0, abs=1e-9)


def test_trapezoid_rejects_decreasing_timestamps():
    with pytest.raises(MeterError):
        integrate([PowerSample(1.0, 1.0, "cpu"), PowerSample(0.5, 1.0, "cpu")])


def test_counter_delta_wraparound():
    assert counter_delta(10, 25, 1000) == 15
    assert counter_delta(995, 3, 1000) == 8
    assert counter_delta(7, 7, 1000) == 0


def test_constant_power_span_additivity():
    clock = FakeClock()
    meter = Meter(MeterConfig(source="constant-power",
                              constant_watts={"cpu": 12.0, "ram": 2.0}), clock=clock)
    reports = []
    for dt in (1.0, 2.5, 0.25):
        meter.start_span()
        clock.advance(dt)
        reports.append(meter.stop_span())

    whole = Meter(MeterConfig(source="constant-power",
                              constant_watts={"cpu": 12.0, "ram": 2.0}), clock=clock)
    whole.start_span()
    clock.advance(3.75)
    one = whole.stop_span()

    combined = combine_reports(reports)
    assert combined.total_joules == pytest.approx(one.total_joules, rel=1e-12)
    assert combined.duration_s == pytest.approx(3.75, abs=1e-12)
    assert reports[0].joules["cpu"] == pytest.approx(12.0, abs=1e-12)
    assert reports[0].joules["gpu"] == 0.0


def test_spans_do_not_nest(tmp_path, monkeypatch):
    """A nested span or a stop with no open span is a bug: a RuntimeError,
    which the CLI lets propagate with its traceback."""
    meter = Meter(MeterConfig(source="constant-power"), clock=FakeClock())
    meter.start_span()
    with pytest.raises(RuntimeError, match="do not nest"):
        meter.start_span()
    meter.stop_span()
    with pytest.raises(RuntimeError, match="no span"):
        meter.stop_span()  # already stopped
    with pytest.raises(RuntimeError, match="do not nest"):
        meter.measure(meter.measure, len, "")
    assert meter.measure(len, "ab")[0] == 2  # the outer span closed

    # a run whose meter is misused stops with the traceback, not exit 3
    monkeypatch.setattr(pl, "run_all", lambda cfg, m: m.measure(m.measure, len, ""))
    with pytest.raises(RuntimeError, match="do not nest"):
        cli.main(["run-all", "--out", str(tmp_path / "out")])


def test_trace_replay(tmp_path):
    trace = tmp_path / "t.csv"
    trace.write_text(
        "timestamp_s,domain,watts\n"
        "# comment line\n"
        "0.0,cpu,10.0\n"
        "1.0,cpu,10.0\n"
        "0.0,ram,2.0\n"
        "1.0,ram,4.0\n"
    )
    samples = load_trace(trace)
    assert len(samples) == 4

    meter = Meter(MeterConfig(source="trace-replay", trace_path=str(trace)),
                  clock=FakeClock())
    meter.start_span()
    rep = meter.stop_span()
    assert rep.joules["cpu"] == pytest.approx(10.0, abs=1e-12)
    assert rep.joules["ram"] == pytest.approx(3.0, abs=1e-12)
    assert rep.total_joules == pytest.approx(13.0, abs=1e-12)

    # replay is deterministic: a second meter yields identical joules
    again = Meter(MeterConfig(source="trace-replay", trace_path=str(trace)))
    again.start_span()
    rep2 = again.stop_span()
    assert rep2.joules == rep.joules


def test_trace_replay_refuses_a_domain_without_a_report_column(tmp_path):
    # its joules would count in total_joules, but no cpu/ram/gpu column shows them
    trace = tmp_path / "t.csv"
    trace.write_text("0.0,cpu,10.0\n1.0,cpu,10.0\n0.0,disk,5.0\n1.0,disk,5.0\n")
    with pytest.raises(MeterError, match="disk"):
        Meter(MeterConfig(source="trace-replay", trace_path=str(trace)))
    trace.write_text("0.0,cpu,10.0\n1.0,cpu,10.0\n0.0,gpu,5.0\n1.0,gpu,5.0\n")
    meter = Meter(MeterConfig(source="trace-replay", trace_path=str(trace)))
    assert meter.measure(len, "")[1].joules == {"cpu": 10.0, "ram": 0.0, "gpu": 5.0}


def test_trace_replay_requires_path():
    with pytest.raises(MeterError):
        Meter(MeterConfig(source="trace-replay"))


def powercap_dir(tmp_path, uj=5_000_000, max_range=262143328850):
    """A zone laid out like /sys/class/powercap/intel-rapl:0."""
    d = tmp_path / "intel-rapl:0"
    d.mkdir()
    (d / "energy_uj").write_text(f"{uj}\n")
    (d / "max_energy_range_uj").write_text(f"{max_range}\n")
    return d / "energy_uj"


def write_counter(counter, uj):
    """Replaces the counter file whole, so the sampler never reads it half written."""
    tmp = counter.with_name("energy_uj.tmp")
    tmp.write_text(f"{uj}\n")
    os.replace(tmp, counter)


def test_powercap_counter_reads(tmp_path):
    counter = powercap_dir(tmp_path)
    assert read_powercap_counter(counter) == 5_000_000
    with pytest.raises(MeterError):
        read_powercap_counter(tmp_path / "missing")
    bad = tmp_path / "bad"
    bad.write_text("not-a-number")
    with pytest.raises(MeterError):
        read_powercap_counter(bad)


def test_powercap_span_from_synthetic_counters(tmp_path):
    counter = powercap_dir(tmp_path, uj=1_000_000)
    cfg = MeterConfig(source="powercap", powercap_paths={"cpu": str(counter)})
    meter = Meter(cfg)
    meter.start_span()
    write_counter(counter, 3_500_000)
    rep = meter.stop_span()
    assert rep.joules["cpu"] == pytest.approx(2.5, abs=1e-9)


def test_powercap_span_handles_wraparound(tmp_path):
    counter = powercap_dir(tmp_path, uj=999_000_000, max_range=1_000_000_000)
    cfg = MeterConfig(source="powercap", powercap_paths={"cpu": str(counter)})
    meter = Meter(cfg)
    meter.start_span()
    write_counter(counter, 2_000_000)  # wrapped past the range
    rep = meter.stop_span()
    assert rep.joules["cpu"] == pytest.approx(3.0, abs=1e-6)


def test_powercap_span_counts_a_wrap_between_each_pair_of_polls(tmp_path, monkeypatch):
    """The sampler thread exists for this: two wraps in one span, each seen
    by a poll of its own, add up to more than one counter range."""
    monkeypatch.setattr(meter_mod, "SAMPLING_INTERVAL_S", 0.002)
    counter = powercap_dir(tmp_path, uj=900_000_000, max_range=1_000_000_000)
    meter = Meter(MeterConfig(source="powercap", powercap_paths={"cpu": str(counter)}))
    meter.start_span()
    sampler = meter._active[1]  # (start time, sampler)
    for uj in (100_000_000, 50_000_000):  # each reading is below the one before: a wrap
        write_counter(counter, uj)
        deadline = time.monotonic() + 10.0
        while sampler.last["cpu"] != uj:  # wait for a poll to read it
            assert time.monotonic() < deadline, "the sampler thread never polled"
            time.sleep(0.001)
    rep = meter.stop_span()
    # 900M -> 100M wraps (200M uJ), 100M -> 50M wraps (950M uJ)
    assert rep.joules["cpu"] == pytest.approx(1150.0, abs=1e-6)


def test_powercap_read_that_fails_mid_span_fails_the_span(tmp_path, monkeypatch):
    """A counter that cannot be read for one poll ends the sampler thread.
    The wraps after it would go uncounted (two here: 150 J would be reported
    where 1,150 J went through), so the span raises instead."""
    monkeypatch.setattr(meter_mod, "SAMPLING_INTERVAL_S", 0.002)
    counter = powercap_dir(tmp_path, uj=900_000_000, max_range=1_000_000_000)
    failed, real = threading.Event(), meter_mod.read_powercap_counter

    def read(path):
        try:
            return real(path)
        except MeterError:
            failed.set()
            raise

    monkeypatch.setattr(meter_mod, "read_powercap_counter", read)
    meter = Meter(MeterConfig(source="powercap", powercap_paths={"cpu": str(counter)}))

    def run():
        write_counter(counter, "oops")
        assert failed.wait(10.0), "the sampler thread never polled"
        for uj in (100_000_000, 50_000_000):  # each below the one before: a wrap
            write_counter(counter, uj)
            time.sleep(0.02)  # ten polling intervals

    with pytest.raises(MeterError, match="cannot read powercap counter"):
        meter.measure(run)
    assert meter.measure(len, "ab")[0] == 2  # the failed span closed


def test_measure_closes_span_when_fn_raises(tmp_path):
    counter = powercap_dir(tmp_path)
    meter = Meter(MeterConfig(source="powercap", powercap_paths={"cpu": str(counter)}))
    samplers = []

    def boom():
        samplers.append(meter._active[1])  # (start time, sampler)
        raise RuntimeError("boom")

    with pytest.raises(RuntimeError, match="boom"):
        meter.measure(boom)
    assert not samplers[0]._thread.is_alive()
    result, rep = meter.measure(lambda x: x + 1, 41)  # a new span starts
    assert result == 42
    assert rep.joules["cpu"] == 0.0


def test_powercap_needs_paths():
    with pytest.raises(MeterError):
        Meter(MeterConfig(source="powercap"))


def test_units_and_co2():
    rep = EnergyReport(joules={"cpu": 3.6e6}, duration_s=10.0, carbon_intensity=0.5)
    assert rep.kwh == pytest.approx(1.0, abs=1e-12)
    assert rep.co2e_kg == pytest.approx(0.5, abs=1e-12)


def test_report_dict_roundtrip():
    rep = EnergyReport(joules={"cpu": 1.5, "ram": 0.5}, duration_s=2.0)
    back = report_from_dict(rep.to_dict())
    assert back.joules == rep.joules
    assert back.total_joules == rep.total_joules
    assert back.carbon_intensity == rep.carbon_intensity


def test_meter_from_spec(tmp_path):
    assert meter_from_spec("constant", MeterConfig()).config.source == "constant-power"
    trace = tmp_path / "t.csv"
    trace.write_text("0.0,cpu,1.0\n1.0,cpu,1.0\n")
    m = meter_from_spec(f"trace:{trace}", MeterConfig())
    assert m.config.source == "trace-replay"
    with pytest.raises(MeterError):
        meter_from_spec("solar", MeterConfig())


def test_meter_from_spec_leaves_config_unchanged(tmp_path):
    trace = tmp_path / "t.csv"
    trace.write_text("0.0,cpu,1.0\n1.0,cpu,1.0\n")
    paths = {"cpu": str(powercap_dir(tmp_path))}
    cfg = MeterConfig(source="constant-power", constant_watts={"cpu": 5.0}, powercap_paths=paths)
    for spec in ("powercap", f"trace:{trace}", "constant"):
        meter_from_spec(spec, cfg)
        assert cfg == MeterConfig(source="constant-power", constant_watts={"cpu": 5.0},
                                  powercap_paths=paths)


def test_bad_config():
    for bad in ({"source": "wind"}, {"carbon_intensity": "x"}, {"carbon_intensity": -1},
                {"carbon_intensity": float("nan")}, {"constant_watts": {"cpu": 1, "tpu": 2}},
                {"powercap_paths": {"tpu": "energy_uj"}}):
        with pytest.raises(MeterError):
            Meter(MeterConfig(**bad))
    with pytest.raises(MeterError):
        combine_reports([])
