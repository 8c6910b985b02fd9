#include "core_config.hh"

#include "common/logging.hh"

namespace stsim
{

void
CoreConfig::applyPipelineDepth(unsigned total_stages)
{
    if (total_stages < kMinPipelineDepth || total_stages > kMaxPipelineDepth)
        stsim_fatal("pipeline depth %u outside supported range [%u,%u]",
                    total_stages, kMinPipelineDepth, kMaxPipelineDepth);
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
    if (fetchWidth == 0 || decodeWidth == 0 || issueWidth == 0 ||
        commitWidth == 0)
        stsim_fatal("zero pipeline width");
    if (fetchWidth > 64 || issueWidth > 64)
        stsim_fatal("implausible width");
    if (ruuSize < 8 || lsqSize < 4)
        stsim_fatal("window/LSQ too small");
    if (fetchStages < 1 || decodeStages < 1)
        stsim_fatal("front-end depth must be at least 1+1");
    if (numIntAlu == 0 || numMemPorts == 0)
        stsim_fatal("need at least one int ALU and one memory port");
    if (maxTakenBranchesPerFetch == 0)
        stsim_fatal("maxTakenBranchesPerFetch must be >= 1");
}

} // namespace stsim
