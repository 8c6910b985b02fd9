"""Paper reference values and the fidelity metrics computed against them.

Every reference value cites where the paper gives it. Until now these
numbers existed only as printed rows in bench/fig5_selection_throttling.cc
and bench/conf_estimators.cc.
"""

# Figure 5, "Average" bars over the eight SPECint95 benchmarks:
# speedup 0.95 / 13.5% energy saving / 8.5% E-D improvement for C2, and
# 0.92 / 11.0% / 3.5% for Pipeline Gating. Slowdown is 100 * (1 - speedup).
FIG5_AVERAGES = {
    "C2": {"slowdown_pct": 5.0, "energy_pct": 13.5, "ed_pct": 8.5,
           "cite": "Figure 5, C2 average (speedup 0.95)"},
    "PG": {"slowdown_pct": 8.0, "energy_pct": 11.0, "ed_pct": 3.5,
           "cite": "Figure 5, Pipeline Gating average (speedup 0.92)"},
}

# Section 4.3: confidence-estimator quality, SPEC and PVN in percent.
CONFIDENCE = {
    "bpru": {"spec": 60.0, "pvn": 45.0, "cite": "Section 4.3, BPRU"},
    "jrs": {"spec": 90.0, "pvn": 24.0, "cite": "Section 4.3, JRS"},
}

# The simulator's Figure 5 averages as ROADMAP item 1 recorded them
# (500K measured / 150K warmup instructions, runSeed 42): speedup,
# energy saving %, E-D improvement %, each to the printed precision.
# The recalibration of item 1 is expected to change these on purpose.
ROADMAP_ITEM1_SEED = 42
ROADMAP_ITEM1 = {"C2": (0.924, 6.9, -0.7), "PG": (0.937, 10.2, 4.1)}
ROADMAP_ITEM1_GAP_PP = 3.58
ROADMAP_ITEM1_C2_MINUS_PG_PP = -4.83

_FIELDS = ("slowdown_pct", "energy_pct", "ed_pct")


def _num(results, key):
    v = results[key]
    return float.fromhex(v) if isinstance(v, str) else float(v)


def fig5_averages(records):
    """Mean baseline-relative metrics per experiment, as the Harness
    computes its "Average" row: per benchmark, RelativeMetrics::compute
    against that benchmark's baseline, then the arithmetic mean.

    records: parsed "results" objects of one matrix (any order).
    Returns {experiment: {"speedup", "slowdown_pct", "energy_pct",
    "ed_pct"}} for every non-baseline experiment.
    """
    base = {r["benchmark"]: r for r in records
            if r["experiment"] == "baseline"}
    rows = {}
    for r in records:
        if r["experiment"] == "baseline" or r["benchmark"] not in base:
            continue
        b = base[r["benchmark"]]
        speedup = _num(r, "ipc") / _num(b, "ipc")
        energy = 100.0 * (_num(b, "energyJ") - _num(r, "energyJ")) \
            / _num(b, "energyJ")
        ed = 100.0 * (_num(b, "edProduct") - _num(r, "edProduct")) \
            / _num(b, "edProduct")
        rows.setdefault(r["experiment"], []).append((speedup, energy, ed))
    out = {}
    for exp, vals in rows.items():
        n = len(vals)
        speedup = sum(v[0] for v in vals) / n
        out[exp] = {"speedup": speedup,
                    "slowdown_pct": 100.0 * (1.0 - speedup),
                    "energy_pct": sum(v[1] for v in vals) / n,
                    "ed_pct": sum(v[2] for v in vals) / n}
    return out


def paper_gap_pp(avgs):
    """Mean |sim - paper| over C2's and PG's slowdown, energy saving and
    E-D improvement averages (six values, percentage points)."""
    diffs = [abs(avgs[e][f] - FIG5_AVERAGES[e][f])
             for e in ("C2", "PG") for f in _FIELDS]
    return sum(diffs) / len(diffs)


def c2_minus_pg_ed_pp(avgs):
    """C2's average E-D improvement minus PG's; the paper gives +5.0."""
    return avgs["C2"]["ed_pct"] - avgs["PG"]["ed_pct"]


def c2_pg_ed_ratio(avgs):
    """C2's mean relative energy-delay over PG's (lower is better).

    The sign-free form of c2_minus_pg_ed_pp: the mean of ED_x/ED_base
    is 1 - ed_pct/100, so the paper's Figure 5 gives 0.915/0.965 =
    0.948, and a value above 1 means PG beats C2.
    """
    return (1.0 - avgs["C2"]["ed_pct"] / 100.0) / \
        (1.0 - avgs["PG"]["ed_pct"] / 100.0)


def matches_roadmap_item1(avgs):
    """True when C2/PG averages equal ROADMAP item 1's printed values."""
    for exp, (speedup, energy, ed) in ROADMAP_ITEM1.items():
        a = avgs[exp]
        if (round(a["speedup"], 3) != speedup
                or round(a["energy_pct"], 1) != energy
                or round(a["ed_pct"], 1) != ed):
            return False
    return (round(paper_gap_pp(avgs), 2) == ROADMAP_ITEM1_GAP_PP and
            round(c2_minus_pg_ed_pp(avgs), 2) ==
            ROADMAP_ITEM1_C2_MINUS_PG_PP)
