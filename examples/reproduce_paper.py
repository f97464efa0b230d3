#!/usr/bin/env python
"""Regenerate every table and figure from the paper's evaluation.

This is the full-length driver behind the benchmark suite: it runs each
experiment at (reduced) scale and prints the regenerated artifact next to
the paper's reference values.  Expect a few minutes of wall time; pass
``--quick`` for a fast smoke pass or ``--full`` for the paper's exact
client counts.

Run:
    python examples/reproduce_paper.py [--quick|--full]
"""

import sys


def main() -> None:
    mode = "normal"
    if "--quick" in sys.argv:
        mode = "quick"
    elif "--full" in sys.argv:
        mode = "full"

    counts = {"quick": (4, 64), "normal": (1, 8, 64),
              "full": (1, 2, 4, 8, 16, 32, 64)}[mode]
    measure = {"quick": 0.8, "normal": 1.2, "full": 2.5}[mode]

    from repro.experiments.figure8 import run_figure8
    from repro.experiments.figure9 import run_figure9
    from repro.experiments.figure10 import run_figure10
    from repro.experiments.figure11 import run_figure11
    from repro.experiments.table1 import format_table1, run_table1
    from repro.experiments.table2 import format_table2, run_table2

    print("#" * 70)
    print("# Figure 8 — base performance, four configurations")
    print("#" * 70)
    fig8 = run_figure8(client_counts=counts, measure_s=measure)
    print(fig8.format(), "\n")

    print("#" * 70)
    print("# Table 1 — accounting accuracy")
    print("#" * 70)
    print(format_table1([run_table1("accounting"),
                         run_table1("accounting_pd")]), "\n")

    print("#" * 70)
    print("# Table 2 — pathKill cost")
    print("#" * 70)
    print(format_table2([run_table2(c) for c in
                         ("accounting", "accounting_pd", "linux")]), "\n")

    print("#" * 70)
    print("# Figure 9 — SYN attack")
    print("#" * 70)
    for doc in ("/doc-1", "/doc-10k"):
        fig9 = run_figure9(client_counts=(counts[-1],), document=doc,
                           measure_s=measure)
        print(fig9.format(), "\n")

    print("#" * 70)
    print("# Figure 10 — QoS stream")
    print("#" * 70)
    fig10 = run_figure10(client_counts=(counts[-1],),
                         measure_s=max(2.0, measure))
    print(fig10.format(), "\n")

    print("#" * 70)
    print("# Figure 11 — CGI attack")
    print("#" * 70)
    fig11 = run_figure11(attacker_counts=(0, 10, 50),
                         measure_s=max(2.0, measure))
    print(fig11.format())


if __name__ == "__main__":
    main()
