"""Benchmark: regenerate Figure 9 (SYN attack defence).

Paper claims under test, for a 1000 SYN/s flood from the untrusted
subnet against the dual-passive-path policy:

* best-effort traffic from the trusted subnet slows by less than 5 %
  under Accounting and less than 15 % under Accounting_PD;
* the flood is dropped at demultiplexing time (early, cheap);
* the Accounting_PD slowdown exceeds the Accounting slowdown (TLB misses
  during demux).
"""

import os

import pytest

from repro.experiments.figure9 import PAPER_MAX_SLOWDOWN, run_figure9


@pytest.fixture(scope="module")
def fig9():
    counts = (1, 8, 16, 32, 64) \
        if os.environ.get("REPRO_FULL") == "1" else (64,)
    return {
        "1B": run_figure9(client_counts=counts, document="/doc-1"),
        "10KB": run_figure9(client_counts=counts, document="/doc-10k"),
    }


def test_figure9_regenerate(benchmark, fig9):
    text = benchmark.pedantic(
        lambda: "\n\n".join(r.format() for r in fig9.values()), rounds=1)
    print()
    print(text)


def test_slowdown_bands(benchmark, fig9):
    def check():
        for doc, result in fig9.items():
            for config, cap in PAPER_MAX_SLOWDOWN.items():
                slowdown = result.slowdown(config)
                assert slowdown <= cap, (doc, config, slowdown)

    benchmark.pedantic(check, rounds=1)


def test_pd_config_hurts_more(benchmark, fig9):
    def check():
        result = fig9["1B"]
        assert result.slowdown("accounting_pd") \
            >= result.slowdown("accounting") - 0.01

    benchmark.pedantic(check, rounds=1)


def test_flood_dropped_at_demux(benchmark, fig9):
    def check():
        for result in fig9.values():
            for config, stats in result.syn_stats.items():
                assert stats["sent"] > 0
                # The overwhelming majority of flood SYNs die at demux
                # once the half-open cap fills.
                assert stats["dropped"] > 0.8 * stats["sent"], (
                    config, stats)

    benchmark.pedantic(check, rounds=1)
