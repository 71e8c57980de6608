"""Figure 7: microbenchmark overhead vs. fraction of guarded instructions.

Paper shape: the RD mode shows no overhead at all (a guarded load costs one
directory lookup folded into address generation); the WR and RD/WR modes show
an overhead that grows linearly with the fraction of guarded stores (the
double store adds instructions), reaching ~28% at 100%.
"""

from repro.harness import experiments, reporting
from repro.harness.sweep import SweepContext


def run_figure7():
    return experiments.figure7(SweepContext(),
                               percentages=(0, 25, 50, 75, 100),
                               iterations=3000, unroll=20)


def test_figure7_microbenchmark_overhead(benchmark):
    results = benchmark.pedantic(run_figure7, rounds=1, iterations=1)
    print()
    print(reporting.format_figure7(results))
    rd = [p.overhead for p in results["RD"]]
    wr = [p.overhead for p in results["WR"]]
    rdwr = [p.overhead for p in results["RD/WR"]]
    # RD mode: essentially free.
    assert max(rd) < 1.08
    # WR / RD-WR: overhead grows with the guarded fraction and is bounded by
    # the paper's worst case (~1.3x) plus slack.
    assert wr[-1] >= wr[0]
    assert rdwr[-1] >= rdwr[0]
    assert wr[-1] > 1.02
    assert wr[-1] < 1.45
