"""Smoke tests for the per-figure/table experiment runners.

Tiny parameter sets; the full versions run in benchmarks/.  These pin the
runner plumbing: result structures, formatting, and the directional claims
that survive even short windows.
"""

from unittest import mock

import pytest

from repro.experiments import table1, table2
from repro.experiments.figure8 import run_figure8
from repro.experiments.figure9 import run_figure9
from repro.experiments.figure10 import run_figure10
from repro.experiments.figure11 import run_figure11
from repro.experiments.report import format_table
from repro.experiments.table1 import format_table1, run_table1
from repro.experiments.table2 import PAPER, format_table2, run_table2


def test_report_format_table():
    text = format_table("T", ["a", "b"], [[1, 2.5], ["x", "y"]], note="n")
    assert "T" in text and "2.5" in text and "n" in text


def test_figure8_runner_smoke():
    result = run_figure8(client_counts=(2,), configs=("scout", "linux"),
                         docs={"1B": "/doc-1"}, warmup_s=0.3, measure_s=0.5)
    assert result.series["1B"]["scout"][0] > 0
    assert result.series["1B"]["linux"][0] > 0
    assert "Figure 8" in result.format()


def test_figure9_runner_smoke():
    result = run_figure9(client_counts=(8,), configs=("accounting",),
                         warmup_s=0.8, measure_s=0.8)
    assert result.series["accounting"]["base"][0] > 0
    assert result.series["accounting"]["attack"][0] > 0
    assert result.syn_stats["accounting"]["sent"] > 0
    assert "SYN" in result.format()


def test_figure10_runner_smoke():
    result = run_figure10(client_counts=(4,), configs=("accounting",),
                          warmup_s=1.0, measure_s=1.0)
    assert result.qos_bandwidth["accounting"] > 0.5e6
    assert "QoS" in result.format()


def test_figure11_runner_smoke():
    result = run_figure11(attacker_counts=(0, 5), configs=("accounting",),
                          clients=8, warmup_s=0.8, measure_s=1.5)
    assert result.kills["accounting"][0] == 0
    assert result.kills["accounting"][1] > 0
    assert "CGI" in result.format()


def test_table1_runner_accounts_everything():
    with mock.patch.object(table1, "MEASURE_S", 1.0):
        result = run_table1("accounting")
    assert result.requests > 10
    assert 0.90 <= result.accounted_fraction <= 1.10
    assert result.active > result.passive
    text = format_table1([result])
    assert "Total Accounted" in text


def test_table2_runner_matches_paper_order():
    with mock.patch.object(table2, "MEASURE_S", 2.0):
        acct = run_table2("accounting")
        pd = run_table2("accounting_pd")
    linux = run_table2("linux")
    assert linux.kill_cycles < acct.kill_cycles < pd.kill_cycles
    assert pd.kill_cycles / acct.kill_cycles == pytest.approx(
        PAPER["accounting_pd"] / PAPER["accounting"], rel=0.5)
    assert "Table 2" in format_table2([acct, pd, linux])


def test_table2_linux_needs_no_simulation():
    result = run_table2("linux")
    assert result.kills == 0
    assert result.kill_cycles == PAPER["linux"] or result.kill_cycles > 0
