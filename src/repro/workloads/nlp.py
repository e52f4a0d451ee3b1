"""NLP classification workloads: streamed sentiment analysis.

The paper converts the Amazon product reviews and IMDB movie reviews datasets
into streams (ordering by product category / frequent reviewer, or streaming
review sentences in order) and replays them under Azure-Functions-derived
arrival traces.  We synthesize statistically-equivalent streams:

* **amazon-like** — requests grouped into product-category/user regimes whose
  mean difficulty jumps at regime boundaries; little correlation between
  adjacent requests within a regime.
* **imdb-like** — sentence-by-sentence streaming of longer reviews gives
  short runs of correlated difficulty (sentences of one review) separated by
  jumps between reviews.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from repro.utils.rng import RngFactory
from repro.workloads.arrivals import (flash_crowd_arrivals,
                                      maf_trace_arrivals, poisson_arrivals,
                                      trace_arrivals)
from repro.workloads.difficulty import (DifficultyTrace, RegimeSwitchDifficulty,
                                        resolve_preset)

__all__ = ["NLPWorkload", "make_nlp_workload", "NLP_DATASET_PRESETS"]

NLP_DATASET_PRESETS: Dict[str, Dict[str, float]] = {
    # Amazon reviews: category/user regimes of a few hundred requests.
    "amazon": {"base_mean": 0.45, "regime_spread": 0.16, "within_spread": 0.14,
               "expected_regime_length": 400},
    # IMDB review sentences: shorter regimes (one review), slightly easier.
    "imdb": {"base_mean": 0.40, "regime_spread": 0.20, "within_spread": 0.10,
             "expected_regime_length": 24},
}


@dataclass
class NLPWorkload:
    """An NLP classification workload: difficulty trace + arrival times."""

    name: str
    trace: DifficultyTrace
    arrival_times_ms: np.ndarray

    def __len__(self) -> int:
        return len(self.trace)


def make_nlp_workload(dataset: str = "amazon", num_requests: int = 20_000,
                      rate_qps: float = 40.0, seed: int = 0,
                      arrival_process: str = "maf",
                      preset_overrides: Optional[Dict[str, float]] = None) -> NLPWorkload:
    """Create a synthetic NLP classification workload.

    Parameters
    ----------
    dataset:
        ``"amazon"`` or ``"imdb"`` (anything else raises
        :class:`ValueError`).
    num_requests:
        Stream length.
    rate_qps:
        Average arrival rate; the MAF-like process is bursty around it.
    arrival_process:
        ``"maf"`` (bursty Azure-Functions-like), ``"poisson"``,
        ``"flash_crowd"`` (Poisson baseline with a sudden sustained 4x
        spike), or ``"trace:<path>"`` (replay a CSV of arrival timestamps
        in ms).
    """
    rng_factory = RngFactory(seed)
    preset = resolve_preset(NLP_DATASET_PRESETS, dataset, preset_overrides)
    process = RegimeSwitchDifficulty(
        base_mean=preset["base_mean"],
        regime_spread=preset["regime_spread"],
        within_spread=preset["within_spread"],
        expected_regime_length=int(preset["expected_regime_length"]),
    )
    trace = process.generate(num_requests,
                             rng_factory.generator(f"nlp:{dataset}:difficulty"),
                             name=f"nlp:{dataset}")
    arrival_rng = rng_factory.generator(f"nlp:{dataset}:arrivals")
    if arrival_process == "poisson":
        arrivals = poisson_arrivals(num_requests, rate_qps, arrival_rng)
    elif arrival_process == "maf":
        arrivals = maf_trace_arrivals(num_requests, rate_qps, arrival_rng)
    elif arrival_process == "flash_crowd":
        arrivals = flash_crowd_arrivals(num_requests, rate_qps, arrival_rng)
    elif arrival_process.startswith("trace:"):
        arrivals = trace_arrivals(num_requests,
                                  arrival_process[len("trace:"):])
    else:
        raise ValueError(f"unknown arrival_process {arrival_process!r}; "
                         "choose from ('maf', 'poisson', 'flash_crowd', "
                         "'trace:<path>')")
    return NLPWorkload(name=dataset, trace=trace, arrival_times_ms=arrivals)
