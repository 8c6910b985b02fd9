#!/usr/bin/env python3
"""Self-tests of the benchmark's own logic.

    python3 perfbench/selftest.py          # fast: names, gate, paper math
    python3 perfbench/selftest.py --e2e    # also runs every workload briefly

The fast tests need no build. --e2e builds stsim (as run.py does) and
runs each workload for one second in both trace modes, so it also checks
that every workload prints every metric BENCHMARK.json declares, with
its unit, and that fig5-sweep reproduces ROADMAP item 1 at seed 42.
"""

import contextlib
import io
import json
import os
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import gate  # noqa: E402
import paper  # noqa: E402
import run  # noqa: E402

with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
    SPEC = json.load(f)
FIXTURE = os.path.join(HERE, "fixtures", "golden_crafty_baseline.jsonl")


def fixture():
    """A real manifest job and its `dump` record (1000 instructions)."""
    with open(FIXTURE, "rb") as f:
        job_line, record = f.read().splitlines()
    return json.loads(job_line), record


class Names(unittest.TestCase):
    def test_metric_names_and_units(self):
        names = [m["name"] for g in ("end_to_end", "per_layer")
                 for m in SPEC[g]]
        self.assertEqual(len(names), len(set(names)))
        for n in names:
            self.assertRegex(n, r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
        for g in ("end_to_end", "per_layer"):
            for m in SPEC[g]:
                self.assertRegex(m["unit"], r"^[A-Za-z0-9_/%.-]{1,16}$")
                self.assertIn(m["better"], ("lower", "higher"))

    def test_workloads_are_the_runner_s(self):
        self.assertEqual({w["name"] for w in SPEC["workloads"]},
                         set(run.WORKLOADS))

    def test_setup_s_has_the_largest_bound(self):
        bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
        self.assertEqual(bounds["setup_s"], max(bounds.values()))
        self.assertLessEqual(max(bounds.values()), 0.25)


class Gate(unittest.TestCase):
    def test_fixture_passes(self):
        job, rec = fixture()
        g = gate.Gate()
        parsed = g.check_batch([job], [rec], "fixture")
        self.assertEqual((g.attempted, g.failed), (1, 0), g.problems)
        self.assertEqual(parsed[0]["benchmark"], "crafty")

    def test_one_byte_corruption_is_caught(self):
        job, rec = fixture()
        # Flipping one hex digit of energyJ must fail both the byte
        # comparison and the energy-sum invariant.
        at = rec.index(b'"energyJ":"0x1.') + len(b'"energyJ":"0x1.')
        bad = rec[:at] + (b"0" if rec[at:at + 1] != b"0" else b"1") + \
            rec[at + 1:]
        g = gate.Gate()
        g.check_identical([rec], [bad], "corrupt")
        self.assertEqual(g.failed, 1)
        g = gate.Gate()
        g.check_batch([job], [bad], "corrupt")
        self.assertEqual(g.failed, 1)
        self.assertIn("unit energies", g.problems[0])

    def test_invariants(self):
        job, rec = fixture()
        r = json.loads(rec)["results"]
        self.assertEqual(gate.invariant_violations(r, job["cfg"]), [])
        r["core"]["fetchedWrongPath"] = r["core"]["fetchedInsts"] + 1
        r["core"]["committedInsts"] = 10
        r["wastedEnergyJ"] = float.hex(2 * float.fromhex(r["energyJ"]))
        bad = gate.invariant_violations(r, job["cfg"])
        self.assertEqual(len(bad), 3, bad)

    def test_dropped_and_duplicated_serve_replies(self):
        _, rec = fixture()
        sent = {7: 0, 8: 0, 9: 0}
        replies = [gate.with_index(rec, rid) for rid in sent]
        g = gate.Gate()
        g.check_replies(sent, replies, [rec], "serve")
        self.assertEqual((g.attempted, g.failed), (3, 0), g.problems)
        g = gate.Gate()
        g.check_replies(sent, replies[:2], [rec], "serve")
        self.assertEqual(g.failed, 1)
        self.assertIn("no result for request 9", g.problems[0])
        g = gate.Gate()
        g.check_replies(sent, replies + replies[:1], [rec], "serve")
        self.assertEqual(g.failed, 1)
        g = gate.Gate()
        g.check_replies(sent, replies[:2] + [b'{"error":"busy","id":9}'],
                        [rec], "serve")
        self.assertEqual(g.failed, 1)


def record(bench, exp, ipc, energy, ed):
    return {"benchmark": bench, "experiment": exp, "ipc": float.hex(ipc),
            "energyJ": float.hex(energy), "edProduct": float.hex(ed)}


class Paper(unittest.TestCase):
    def test_gap_on_a_two_benchmark_fixture(self):
        # Benchmark a reproduces the paper exactly; benchmark b gives
        # C2 0.9 speedup / 10% energy / 0% E-D and PG 1.0 / 0% / 10%.
        recs = [
            record("a", "baseline", 1.0, 1.0, 1.0),
            record("a", "C2", 0.95, 0.865, 0.915),
            record("a", "PG", 0.92, 0.89, 0.965),
            record("b", "baseline", 2.0, 2.0, 4.0),
            record("b", "C2", 1.8, 1.8, 4.0),
            record("b", "PG", 2.0, 2.0, 3.6),
        ]
        avgs = paper.fig5_averages(recs)
        # By hand: C2 averages 7.5 / 11.75 / 4.25, PG 4 / 5.5 / 6.75;
        # |gaps| 2.5 + 1.75 + 4.25 + 4 + 5.5 + 3.25 = 21.25 over 6.
        self.assertAlmostEqual(paper.paper_gap_pp(avgs), 21.25 / 6, 9)
        self.assertAlmostEqual(paper.c2_minus_pg_ed_pp(avgs), -2.5, 9)
        self.assertAlmostEqual(paper.c2_pg_ed_ratio(avgs),
                               0.9575 / 0.9325, 9)

    def test_paper_values_give_no_gap(self):
        avgs = {e: dict(v) for e, v in paper.FIG5_AVERAGES.items()}
        self.assertEqual(paper.paper_gap_pp(avgs), 0.0)
        self.assertAlmostEqual(paper.c2_pg_ed_ratio(avgs), 0.915 / 0.965)


def run_workload(workload, trace, seed=42):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = run.main(["--workload", workload, "--seed", str(seed),
                       "--seconds", "1", "--trace", str(trace)])
    return rc, out.getvalue().splitlines()


class EndToEnd(unittest.TestCase):
    def test_every_workload_prints_its_declared_metrics(self):
        for w in sorted(run.WORKLOADS):
            for trace in (0, 1):
                with self.subTest(workload=w, trace=trace):
                    rc, lines = run_workload(w, trace)
                    self.assertEqual(rc, 0, lines[-5:])
                    res = json.loads(lines[-1])
                    self.assertEqual(set(res), {"correct", "attempted",
                                                "failed", "metrics"})
                    self.assertTrue(res["correct"])
                    want = run.declared(SPEC, trace)
                    got = {k: v["unit"] for k, v in res["metrics"].items()}
                    self.assertEqual(got, want)
                    if w == "fig5-sweep":
                        self.check_roadmap_item1(lines, res, trace)

    def check_roadmap_item1(self, lines, res, trace):
        self.assertIn("perfbench: fig5 averages match ROADMAP item 1's "
                      "at the default seed", lines)
        m = res["metrics"]
        if trace:
            self.assertAlmostEqual(m["c2_minus_pg_ed_pp"]["value"],
                                   paper.ROADMAP_ITEM1_C2_MINUS_PG_PP,
                                   delta=0.01)
        else:
            self.assertAlmostEqual(m["paper_gap_pp"]["value"],
                                   paper.ROADMAP_ITEM1_GAP_PP, delta=0.01)


if __name__ == "__main__":
    if "--e2e" in sys.argv:
        sys.argv.remove("--e2e")
    else:
        del EndToEnd
    unittest.main()
