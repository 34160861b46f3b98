"""The energy-measurement subsystem (paper §II), simulated.

The physical chain is: five switch-mode supplies per slice (four 1 V
rails feeding two chips — four cores — each, one 3.3 V rail for I/O),
each with a shunt resistor, a differential amplifier, and a shared
multi-channel ADC sampling at up to 2 MS/s (1 MS/s when all channels are
sampled together).  Measurement data can be consumed *on the slice
itself* — a program can measure its own power and adapt — or streamed out
over Ethernet.

Here the "shunt" reads the energy-accounting ledger; the amplifier/ADC
stage contributes gain and quantisation so measured values have realistic
resolution, and sample-rate limits are enforced.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.energy.accounting import SUPPORT_MW_PER_NODE, EnergyAccounting
from repro.sim import PS_PER_S, Process, Simulator
from repro.xs1.core import XCore

#: Cores fed by each 1 V rail (two dual-core chips).
CORES_PER_RAIL = 4
#: Core-supply rails per slice.
CORE_RAILS_PER_SLICE = 4
#: Maximum single-channel sample rate (paper: 2 M samples/s).
MAX_SINGLE_RATE_HZ = 2_000_000
#: Maximum all-channel sample rate (paper: 1 M/s if all sampled).
MAX_ALL_RATE_HZ = 1_000_000


class SamplingRateError(ValueError):
    """Raised when a requested sampling rate exceeds the ADC's capability."""


@dataclass
class Rail:
    """One measured supply rail."""

    name: str
    voltage: float
    cores: list[XCore] = field(default_factory=list)
    is_io: bool = False

    def power_mw(self, accounting: EnergyAccounting) -> float:
        """Instantaneous (last-window) power drawn from this rail."""
        accounting.update()
        if self.is_io:
            return SUPPORT_MW_PER_NODE * len(accounting.trackers)
        return sum(
            accounting.trackers[core.node_id].last_window_power_mw
            for core in self.cores
        )


@dataclass
class Adc:
    """Quantising ADC front-end: shunt + differential amplifier + converter.

    ``noise_lsb_rms`` adds seeded Gaussian front-end noise (in LSBs) for
    studying measurement-limited energy attribution; zero (the default)
    keeps the chain ideal and the simulation fully deterministic either
    way — the noise stream is a pure function of the seed.
    """

    resolution_bits: int = 12
    full_scale_mw: float = 2000.0
    noise_lsb_rms: float = 0.0
    noise_seed: int = 1

    def __post_init__(self) -> None:
        import random

        self._rng = random.Random(self.noise_seed)

    def quantize(self, power_mw: float) -> float:
        """The rail power as the ADC would report it."""
        levels = (1 << self.resolution_bits) - 1
        if self.noise_lsb_rms:
            power_mw += self._rng.gauss(0.0, self.noise_lsb_rms) * self.lsb_mw
        clamped = min(max(power_mw, 0.0), self.full_scale_mw)
        code = round(clamped / self.full_scale_mw * levels)
        return code / levels * self.full_scale_mw

    @property
    def lsb_mw(self) -> float:
        """Power represented by one ADC code step."""
        return self.full_scale_mw / ((1 << self.resolution_bits) - 1)


class MeasurementBoard:
    """The ADC daughter-board: samples rails, records traces.

    ``rails`` defaults to the slice layout of §II when built through
    :func:`build_slice_rails`.
    """

    def __init__(
        self,
        sim: Simulator,
        accounting: EnergyAccounting,
        rails: list[Rail],
        adc: Adc | None = None,
        name: str = "adc",
    ):
        self.sim = sim
        self.accounting = accounting
        self.rails = rails
        self.adc = adc or Adc()
        self.samples_taken = 0
        self.name = name
        self._samples_counter = None

    def register_metrics(self, registry, **labels: str) -> None:
        """Publish ADC activity: the eager ``adc.samples`` counter.

        ``labels`` identify the board (the assembly passes
        ``slice="sx,sy"``); the counter increments per channel read, the
        same granularity the paper's 2 MS/s budget is specified at.
        """
        counter = registry.counter("adc.samples", **labels)
        counter.inc(self.samples_taken)
        self._samples_counter = counter

    def _count_samples(self, n: int) -> None:
        self.samples_taken += n
        if self._samples_counter is not None:
            self._samples_counter.inc(n)
        tracer = self.sim.tracer
        if tracer is not None:
            tracer.record(self.sim.now, self.name, "sample", n)

    def sample_channel(self, index: int) -> float:
        """One quantised power reading (mW) of rail ``index``."""
        rail = self.rails[index]
        self._count_samples(1)
        return self.adc.quantize(rail.power_mw(self.accounting))

    def sample_all(self) -> list[float]:
        """Simultaneous reading of every rail."""
        self._count_samples(len(self.rails))
        self.accounting.update()
        return [self.adc.quantize(rail.power_mw(self.accounting)) for rail in self.rails]

    def record_trace(
        self,
        duration_s: float,
        rate_hz: float,
        channel: int | None = None,
    ) -> "PowerTrace":
        """Schedule periodic sampling; returns the (filling) trace.

        ``channel=None`` samples all rails (1 MS/s cap); a specific
        channel may go to 2 MS/s, as in the paper.
        """
        cap = MAX_SINGLE_RATE_HZ if channel is not None else MAX_ALL_RATE_HZ
        if rate_hz > cap:
            raise SamplingRateError(
                f"{rate_hz:g} S/s exceeds the {cap:g} S/s ADC limit"
            )
        if rate_hz <= 0:
            raise SamplingRateError("sampling rate must be positive")
        count = int(duration_s * rate_hz)
        interval_ps = round(PS_PER_S / rate_hz)
        trace = PowerTrace(
            channel=channel,
            rate_hz=rate_hz,
            rail_names=(
                [self.rails[channel].name]
                if channel is not None
                else [rail.name for rail in self.rails]
            ),
        )

        def sampler():
            for _ in range(count):
                if channel is not None:
                    trace.append(self.sim.now, [self.sample_channel(channel)])
                else:
                    trace.append(self.sim.now, self.sample_all())
                yield interval_ps

        Process(self.sim, sampler(), name=f"adc-trace-{id(trace)}")
        return trace


@dataclass
class PowerTrace:
    """A recorded sampling run."""

    channel: int | None
    rate_hz: float
    rail_names: list[str]
    times_ps: list[int] = field(default_factory=list)
    values_mw: list[list[float]] = field(default_factory=list)

    def append(self, time_ps: int, values: list[float]) -> None:
        """Record one sample row."""
        self.times_ps.append(time_ps)
        self.values_mw.append(values)

    def __len__(self) -> int:
        return len(self.times_ps)

    def as_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """(times_s, values_mw) as numpy arrays (rows = samples)."""
        times = np.asarray(self.times_ps, dtype=np.float64) / PS_PER_S
        values = np.asarray(self.values_mw, dtype=np.float64)
        return times, values

    def mean_power_mw(self) -> np.ndarray:
        """Mean power per rail over the trace."""
        _, values = self.as_arrays()
        if values.size == 0:
            return np.zeros(len(self.rail_names))
        return values.mean(axis=0)

    def energy_j(self) -> float:
        """Trapezoidal energy estimate over the trace (all rails)."""
        times, values = self.as_arrays()
        if len(times) < 2:
            return 0.0
        total = values.sum(axis=1) * 1e-3
        return float(np.trapezoid(total, times))


def build_slice_rails(cores: list[XCore]) -> list[Rail]:
    """The paper's five-rail layout for one slice of sixteen cores."""
    if len(cores) != CORE_RAILS_PER_SLICE * CORES_PER_RAIL:
        raise ValueError(
            f"a slice has {CORE_RAILS_PER_SLICE * CORES_PER_RAIL} cores, "
            f"got {len(cores)}"
        )
    rails = [
        Rail(
            name=f"1V0-{i}",
            voltage=1.0,
            cores=cores[i * CORES_PER_RAIL : (i + 1) * CORES_PER_RAIL],
        )
        for i in range(CORE_RAILS_PER_SLICE)
    ]
    rails.append(Rail(name="3V3-io", voltage=3.3, is_io=True))
    return rails
