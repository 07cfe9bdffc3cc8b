"""``paper_mae_pp``: how far the simulated suite lands from the paper.

The claims are the numeric rows of ``PAPER_CLAIMS`` in
``examples/reproduce_paper.py``; rows that state a bound ("> 90%"), a
name ("intruder") or a hardware cost are left out.  Each measured value
is computed with :mod:`repro.analysis.figures` exactly as
``measured_rows`` in that script computes it, in percent.  The score is
the mean absolute difference in percentage points.  It is a pure
function of the simulated counters, so for one seed and scale it is
bit-identical across commits that only change host speed.
"""

from __future__ import annotations

__all__ = ["CLAIMS", "measured_claims", "paper_mae_pp"]

#: (artifact, claim, paper value in percent), in ``PAPER_CLAIMS`` order.
CLAIMS = (
    ("Fig 1", "average false conflict rate", 46.0),
    ("Fig 2", "RAW share for kmeans/labyrinth/genome", 73.0),
    ("Fig 8", "false conflicts eliminated at N=4 (avg)", 56.4),
    ("Fig 9", "overall conflicts removed at N=4 (avg)", 31.3),
    ("Fig 9", "share of the perfect system's reduction", 83.0),
    ("Fig 10", "peak execution-time improvement", 30.0),
    ("Fig 10", "utilitymine execution-time change", -0.1),
)


def measured_claims(suite) -> list[float]:
    """The suite's value for each entry of :data:`CLAIMS`, in percent."""
    from repro.analysis import figures

    f1 = dict(figures.fig1_false_rates(suite))
    f2 = {row[0]: row for row in figures.fig2_breakdown(suite)}
    f8 = dict(figures.fig8_sensitivity(suite))
    f9 = {name: (sub, perfect) for name, sub, perfect in figures.fig9_overall_reduction(suite)}
    f10 = {name: (sub, perfect) for name, sub, perfect in figures.fig10_exec_improvement(suite)}

    raw_trio = sum(f2[name][2] for name in ("kmeans", "labyrinth", "genome")) / 3
    avg_sub, avg_perfect = f9["average"]
    share_of_perfect = avg_sub / avg_perfect if avg_perfect else float("nan")
    best_speedup = max(v[0] for k, v in f10.items() if k != "average")
    values = (
        f1["average"],
        raw_trio,
        f8["average"][4],
        avg_sub,
        share_of_perfect,
        best_speedup,
        f10["utilitymine"][0],
    )
    return [100.0 * v for v in values]


def paper_mae_pp(measured: list[float]) -> float:
    """Mean absolute error against :data:`CLAIMS`, in percentage points."""
    return sum(abs(m - paper) for m, (_, _, paper) in zip(measured, CLAIMS)) / len(CLAIMS)
