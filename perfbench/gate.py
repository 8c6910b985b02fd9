"""The benchmark's correctness gate.

A run counts every checked result as attempted and every bad one as
failed; any failure makes the run fail. Checks:

- batch output: one record per job, in submission order, naming the
  job's benchmark and experiment, byte-identical across repetitions and
  to every other computation of the same jobs (traced, in process,
  from scratch instead of memoized);
- serve replies: exactly one reply per request id, each byte-identical
  to the `dump` record of its job;
- record invariants: committed instructions reach the requested count
  (and overshoot by less than one commit group); the per-unit energies
  sum to energyJ; wastedEnergyJ is at most energyJ; wrong-path counts
  are at most the totals at fetch, decode, dispatch and issue.
"""

import json
import math

STAGES = ("fetched", "decoded", "dispatched", "issued")


def record_index(line):
    """Submission index (or serve request id) of a record line."""
    head = line[:32]
    if not head.startswith(b'{"index":'):
        return None
    end = head.find(b",", 9)
    try:
        return int(head[9:end])
    except ValueError:
        return None


def with_index(line, index):
    """The same record re-keyed to @p index (serve replies echo the
    request id where `dump` writes the manifest index)."""
    comma = line.index(b",")
    return b'{"index":%d' % index + line[comma:]


def invariant_violations(results, job_cfg):
    """Invariant violations of one parsed record (list of strings)."""
    bad = []
    c = results["core"]
    want = job_cfg["maxInstructions"]
    width = job_cfg["core"]["commitWidth"]
    if not want <= c["committedInsts"] < want + width:
        bad.append("committed %d for %d requested"
                   % (c["committedInsts"], want))
    energy = float.fromhex(results["energyJ"])
    units = math.fsum(float.fromhex(u) for u in results["unitEnergyJ"])
    if not math.isclose(units, energy, rel_tol=1e-12):
        bad.append("unit energies sum to %r, energyJ %r" % (units, energy))
    wasted = float.fromhex(results["wastedEnergyJ"])
    if not 0.0 <= wasted <= energy:
        bad.append("wastedEnergyJ %r outside [0, energyJ]" % wasted)
    for stage in STAGES:
        if c[stage + "WrongPath"] > c[stage + "Insts"]:
            bad.append("%s wrong-path %d > total %d"
                       % (stage, c[stage + "WrongPath"], c[stage + "Insts"]))
    return bad


class Gate:
    """Tally of checked results; `problems` keeps the first few."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def fail(self, what):
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(what)

    def check_batch(self, jobs, lines, what):
        """Full check of one batch output against its manifest jobs.

        jobs: parsed manifest objects; lines: output record lines
        (bytes). Returns the parsed results in index order (None where
        a record was unusable).
        """
        parsed = [None] * len(jobs)
        self.attempted += len(jobs)
        if len(lines) != len(jobs):
            self.problems.append("%s: %d records for %d jobs"
                                 % (what, len(lines), len(jobs)))
        for pos, line in enumerate(lines):
            try:
                rec = json.loads(line)
            except ValueError:
                self.fail("%s: record %d is not JSON" % (what, pos))
                continue
            idx = rec.get("index")
            if idx != pos or pos >= len(jobs):
                self.fail("%s: record %d carries index %r" % (what, pos, idx))
                continue
            r, job = rec["results"], jobs[pos]
            bad = invariant_violations(r, job["cfg"])
            if (r["benchmark"] != job["cfg"]["benchmark"] or
                    r["experiment"] != job["experiment"]):
                bad.append("record is for %s/%s"
                           % (r["benchmark"], r["experiment"]))
            if bad:
                self.fail("%s: record %d: %s" % (what, pos, "; ".join(bad)))
                continue
            parsed[pos] = r
        self.failed += max(0, len(jobs) - len(lines))
        return parsed

    def check_identical(self, ref_lines, lines, what):
        """Byte equality of a repeated or independent computation."""
        self.attempted += len(ref_lines)
        n = max(len(ref_lines), len(lines))
        for i in range(n):
            a = ref_lines[i] if i < len(ref_lines) else None
            b = lines[i] if i < len(lines) else None
            if a != b:
                self.fail("%s: record %d differs" % (what, i))

    def check_replies(self, sent, replies, expected, what):
        """Serve replies for one batch of requests.

        sent: {request id: job index}; replies: reply lines (bytes);
        expected: dump record lines per job index. Every request must
        get exactly one reply, byte-identical to its job's record.
        """
        self.attempted += len(sent)
        got = {}
        for line in replies:
            rid = record_index(line)
            if rid in sent and rid not in got:
                got[rid] = line
            elif len(self.problems) < 20:
                # An error reply or a second reply; the request it
                # belongs to is failed below for want of its result.
                self.problems.append("%s: unexpected reply %r"
                                     % (what, line[:80]))
        for rid, k in sent.items():
            line = got.get(rid)
            if line is None:
                self.fail("%s: no result for request %d" % (what, rid))
            elif line != with_index(expected[k], rid):
                self.fail("%s: reply %d differs from dump" % (what, rid))
        if len(replies) > len(got) and not self.failed:
            self.fail("%s: %d replies for %d requests"
                      % (what, len(replies), len(sent)))
