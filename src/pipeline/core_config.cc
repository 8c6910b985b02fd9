#include "core_config.hh"

#include "common/logging.hh"

namespace stsim
{

void
CoreConfig::applyPipelineDepth(unsigned total_stages)
{
    checkField("config", "pipelineDepth", total_stages, kMinPipelineDepth,
               kMaxPipelineDepth);
    pipelineStages = total_stages;

    // Four fixed backend stages: dispatch, issue/select, writeback,
    // commit. The remainder splits 3:1 between the in-order front end
    // and execution latency (§5.3.1 grows both).
    unsigned extra = total_stages - 6;
    unsigned front_end = 2 + (extra * 3 + 2) / 4; // >= 2
    extraExecLatency = extra - (front_end - 2);
    fetchStages = (front_end + 1) / 2;
    decodeStages = front_end / 2;
    extraDl1Latency = extra / 8;
}

void
CoreConfig::validate() const
{
    auto check = [](const char *key, unsigned v, unsigned lo,
                    unsigned hi) { checkField("core", key, v, lo, hi); };
    check("fetchWidth", fetchWidth, 1, kMaxWidth);
    check("decodeWidth", decodeWidth, 1, kMaxWidth);
    check("issueWidth", issueWidth, 1, kMaxWidth);
    check("commitWidth", commitWidth, 1, kMaxWidth);
    check("maxTakenBranchesPerFetch", maxTakenBranchesPerFetch, 1,
          kMaxWidth);
    check("ruuSize", ruuSize, 8, kMaxWindow);
    check("lsqSize", lsqSize, 4, kMaxWindow);
    // An instruction class without a unit never issues: the window
    // deadlocks at its first such instruction.
    check("numIntAlu", numIntAlu, 1, kMaxWidth);
    check("numIntMult", numIntMult, 1, kMaxWidth);
    check("numMemPorts", numMemPorts, 1, kMaxWidth);
    check("numFpAlu", numFpAlu, 1, kMaxWidth);
    check("numFpMult", numFpMult, 1, kMaxWidth);
    // applyPipelineDepth() derives these; a finalized config may carry
    // any values.
    check("pipelineStages", pipelineStages, kMinPipelineDepth,
          kMaxPipelineDepth);
    check("fetchStages", fetchStages, 1, kMaxPipelineDepth);
    check("decodeStages", decodeStages, 1, kMaxPipelineDepth);
    check("extraExecLatency", extraExecLatency, 0, kMaxPipelineDepth);
    check("extraDl1Latency", extraDl1Latency, 0, kMaxPipelineDepth);
    check("extraMispredictPenalty", extraMispredictPenalty, 0,
          kMaxLatency);
    check("btbMissPenalty", btbMissPenalty, 0, kMaxLatency);
}

} // namespace stsim
