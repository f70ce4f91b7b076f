import numpy as np
import pytest

from ealm.meter import (
    EnergyReport,
    Meter,
    MeterConfig,
    MeterError,
    MeterSourceError,
    MeterUsageError,
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
        h = meter.start_span()
        clock.advance(dt)
        reports.append(meter.stop_span(h))

    whole = Meter(MeterConfig(source="constant-power",
                              constant_watts={"cpu": 12.0, "ram": 2.0}), clock=clock)
    h = whole.start_span()
    clock.advance(3.75)
    one = whole.stop_span(h)

    combined = combine_reports(reports)
    assert combined.total_joules == pytest.approx(one.total_joules, rel=1e-12)
    assert combined.duration_s == pytest.approx(3.75, abs=1e-12)
    assert reports[0].joules["cpu"] == pytest.approx(12.0, abs=1e-12)
    assert reports[0].joules["gpu"] == 0.0


def test_spans_do_not_nest():
    meter = Meter(MeterConfig(source="constant-power"), clock=FakeClock())
    h = meter.start_span()
    with pytest.raises(MeterUsageError):
        meter.start_span()
    meter.stop_span(h)
    with pytest.raises(MeterUsageError):
        meter.stop_span(h)  # already stopped


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
    h = meter.start_span()
    rep = meter.stop_span(h)
    assert rep.joules["cpu"] == pytest.approx(10.0, abs=1e-12)
    assert rep.joules["ram"] == pytest.approx(3.0, abs=1e-12)
    assert rep.total_joules == pytest.approx(13.0, abs=1e-12)

    # replay is deterministic: a second meter yields identical joules
    again = Meter(MeterConfig(source="trace-replay", trace_path=str(trace)))
    h2 = again.start_span()
    rep2 = again.stop_span(h2)
    assert rep2.joules == rep.joules


def test_trace_replay_requires_path():
    with pytest.raises(MeterError):
        Meter(MeterConfig(source="trace-replay"))


def powercap_dir(tmp_path, uj=5_000_000, max_range=262143328850):
    d = tmp_path / "intel-rapl:0"
    d.mkdir()
    (d / "energy_uj").write_text(f"{uj}\n")
    (d / "max_energy_uj_range").write_text(f"{max_range}\n")
    return d / "energy_uj"


def test_powercap_counter_reads(tmp_path):
    counter = powercap_dir(tmp_path)
    assert read_powercap_counter(counter) == 5_000_000
    with pytest.raises(MeterSourceError):
        read_powercap_counter(tmp_path / "missing")
    bad = tmp_path / "bad"
    bad.write_text("not-a-number")
    with pytest.raises(MeterSourceError):
        read_powercap_counter(bad)


def test_powercap_span_from_synthetic_counters(tmp_path):
    counter = powercap_dir(tmp_path, uj=1_000_000)
    cfg = MeterConfig(source="powercap", sampling_interval_s=0.01,
                      powercap_paths={"cpu": str(counter)})
    meter = Meter(cfg)
    h = meter.start_span()
    counter.write_text("3_500_000".replace("_", "") + "\n")
    rep = meter.stop_span(h)
    assert rep.joules["cpu"] == pytest.approx(2.5, abs=1e-9)


def test_powercap_span_handles_wraparound(tmp_path):
    counter = powercap_dir(tmp_path, uj=999_000_000, max_range=1_000_000_000)
    cfg = MeterConfig(source="powercap", sampling_interval_s=0.005,
                      powercap_paths={"cpu": str(counter)})
    meter = Meter(cfg)
    h = meter.start_span()
    counter.write_text("2000000\n")  # wrapped past the range
    rep = meter.stop_span(h)
    assert rep.joules["cpu"] == pytest.approx(3.0, abs=1e-6)


def test_powercap_needs_paths():
    meter = Meter(MeterConfig(source="powercap"))
    with pytest.raises(MeterSourceError):
        meter.start_span()


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
    assert meter_from_spec("constant").config.source == "constant-power"
    trace = tmp_path / "t.csv"
    trace.write_text("0.0,cpu,1.0\n1.0,cpu,1.0\n")
    m = meter_from_spec(f"trace:{trace}")
    assert m.config.source == "trace-replay"
    with pytest.raises(MeterError):
        meter_from_spec("solar")


def test_meter_from_spec_leaves_config_unchanged(tmp_path):
    trace = tmp_path / "t.csv"
    trace.write_text("0.0,cpu,1.0\n1.0,cpu,1.0\n")
    cfg = MeterConfig(source="constant-power", constant_watts={"cpu": 5.0})
    for spec in ("powercap", f"trace:{trace}", "constant"):
        meter_from_spec(spec, cfg)
        assert cfg == MeterConfig(source="constant-power", constant_watts={"cpu": 5.0})


def test_bad_config():
    with pytest.raises(MeterError):
        MeterConfig(sampling_interval_s=0.0)
    with pytest.raises(MeterError):
        Meter(MeterConfig(source="wind"))
    with pytest.raises(MeterError):
        combine_reports([])
