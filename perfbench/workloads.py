"""The benchmark's three workloads.

Each workload is a synthetic dataset spec from :mod:`repro.synth_data`
plus the mining thresholds it runs at. All mine with ``max_k=3``,
``epsilon=0``, ``d_o=1``, no ``t_max`` and window overlap 0. See
README.md for why each one is in the set.

The generator draws the readings from the spec's own seed. The run's
``--seed`` then shuffles the order of the days and swaps the series'
names, so every seed gives other input bytes with the same amount of
mining work. Re-drawing the readings per seed moved the number of L3
nodes by 20-45 % between seeds at these sizes (README.md), far more
than any bound a regression gate could use.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro import synth_data
from repro.core import pipeline

MAX_K = 3
EPSILON = 0
D_O = 1


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "energy" (On/Off threshold) or "city" (percentile bins)
    spec: object  # synth_data.EnergySpec or synth_data.CitySpec
    sigma: float
    delta: float
    density: float
    seed: int
    #: Timed calls of each in-process miner per round. Where one call
    #: takes a few tenths of a second, several are made, so that a run's
    #: median rests on more than three short calls.
    miner_calls: int = 1

    @property
    def seq_len(self) -> int:
        return self.spec.slots_per_seq

    def readings_pandas(self):
        """Readings ``(var, t, value)``: the spec's series, with days
        shuffled and names swapped by the run's seed."""
        if self.kind == "energy":
            pdf = synth_data._energy_values(self.spec)
        else:
            pdf = synth_data._city_values(self.spec)
        rng = np.random.default_rng(self.seed)
        day_of = rng.permutation(self.spec.n_seq)
        slots = self.seq_len
        t = pdf["t"].to_numpy()
        pdf["t"] = day_of[t // slots] * slots + t % slots
        names = sorted(pdf["var"].unique())
        rename = dict(zip(names, rng.permutation(names)))
        pdf["var"] = pdf["var"].map(rename)
        return pdf.sort_values(["var", "t"], ignore_index=True)

    def symbolize(self, readings):
        """The paper's symbolization of this workload, as Spark code."""
        from repro.core.symbolize import percentile_symbolize, threshold_symbolize

        if self.kind == "energy":
            return threshold_symbolize(readings, threshold=ENERGY_THRESHOLD)
        return percentile_symbolize(readings, CITY_LABELS, list(CITY_PERCENTILES))


ENERGY_THRESHOLD = pipeline.ENERGY_THRESHOLD
CITY_PERCENTILES = pipeline.CITY_PERCENTILES
CITY_LABELS = synth_data.city_state_labels(synth_data.CITY_SPECS["smartcity"].n_states)

#: Sizes of each workload's input. They are scaled so that one run makes
#: several calls of every step within the run time (see README.md).
ENERGY_LONG_SEQ = 48
CITY_DEEP_SEQ = 6
ENERGY_WIDE_SEQ = 12
#: The widened spec has no seed of its own in synth_data.
WIDE_SEED = 55


def _wide_spec() -> synth_data.EnergySpec:
    """40 appliances: 8 groups of 4 that share activity, 8 independent."""
    groups = tuple(
        tuple(f"g{g}_{m}" for m in range(4)) for g in range(8)
    )
    noise = tuple(f"solo{i}" for i in range(8))
    return synth_data.EnergySpec(
        name="energy-wide",
        n_seq=ENERGY_WIDE_SEQ,
        groups=groups,
        noise_vars=noise,
        seed=WIDE_SEED,
    )


def make(name: str, seed: int) -> Workload:
    """The workload called ``name``, its days and names shuffled by ``seed``."""
    if name == "energy-long":
        spec = replace(
            synth_data.ENERGY_SPECS["nist"], n_seq=ENERGY_LONG_SEQ
        )
        return Workload(name, "energy", spec, 0.5, 0.5, 0.6, seed, miner_calls=4)
    if name == "city-deep":
        spec = replace(
            synth_data.CITY_SPECS["smartcity"], n_seq=CITY_DEEP_SEQ
        )
        return Workload(name, "city", spec, 0.2, 0.2, 0.6, seed)
    if name == "energy-wide":
        return Workload(name, "energy", _wide_spec(), 0.6, 0.6, 0.4, seed)
    raise KeyError(f"unknown workload {name!r}; choose one of {NAMES}")


NAMES = ("energy-long", "city-deep", "energy-wide")
