/**
 * @file
 * Out-of-order core parameters (defaults = the paper's Table 3) and
 * the pipeline-depth mapping used by the Figure 6 sensitivity study.
 */

#ifndef STSIM_PIPELINE_CORE_CONFIG_HH
#define STSIM_PIPELINE_CORE_CONFIG_HH

#include <cstdint>

#include "common/fields.hh"
#include "trace/instruction.hh"

namespace stsim
{

/** Oracle speculation-control modes from §3 (Figure 1). */
enum class OracleMode : std::uint8_t
{
    None,         ///< realistic speculation
    OracleFetch,  ///< never fetch a mis-speculated path
    OracleDecode, ///< realistic fetch; wrong-path dropped at decode
    OracleSelect, ///< realistic fetch+decode; wrong-path never issues
};

/** Short display name of an oracle mode. */
const char *oracleModeName(OracleMode m);

/**
 * Core configuration. The pipeline-depth parameters (fetchStages,
 * decodeStages, extraExecLatency, extraDl1Latency) are usually derived
 * from a total stage count via applyPipelineDepth(), following §5.3.1:
 * depth is varied by growing the in-order front end and adding
 * execute/L1D latency; the backend contributes a fixed four stages
 * (dispatch, issue, writeback, commit).
 */
struct CoreConfig
{
    /// @name Widths (Table 3)
    /// @{
    unsigned fetchWidth = 8;
    unsigned decodeWidth = 8;
    unsigned issueWidth = 8;
    unsigned commitWidth = 8;
    unsigned maxTakenBranchesPerFetch = 2;
    /// @}

    /// @name Structures (Table 3)
    /// @{
    unsigned ruuSize = 128; ///< unified reorder buffer / issue window
    unsigned lsqSize = 64;
    /// @}

    /// @name Functional units (Table 3)
    /// @{
    unsigned numIntAlu = 8;
    unsigned numIntMult = 2;
    unsigned numMemPorts = 2;
    unsigned numFpAlu = 8;
    unsigned numFpMult = 1;
    /// @}

    /// @name Pipeline depth
    /// @{
    unsigned pipelineStages = 14; ///< total fetch-to-commit label
    unsigned fetchStages = 4;     ///< in-order fetch pipe depth
    unsigned decodeStages = 4;    ///< in-order decode/rename pipe depth
    unsigned extraExecLatency = 2; ///< added to every FU latency
    unsigned extraDl1Latency = 1;  ///< added to DL1 hit latency
    /// @}

    /// @name Penalties (Table 3)
    /// @{
    unsigned extraMispredictPenalty = 2; ///< redirect cycles at resolve
    unsigned btbMissPenalty = 2;         ///< misfetch bubble
    /// @}

    /** Oracle experiment mode (Figure 1). */
    OracleMode oracle = OracleMode::None;

    /**
     * Derive the depth-dependent parameters from a total stage count
     * in [6, 28] (§5.3.1). Front end absorbs ~3/4 of the extra depth;
     * the rest lengthens execution, with DL1 latency growing every 8
     * stages. The 14-stage default reproduces the paper's IBM
     * POWER4-like baseline.
     */
    void applyPipelineDepth(unsigned total_stages);

    /** Sanity-check ranges; fatals on nonsense. */
    void validate() const;

    /** Base execution latency of an instruction class (pre-extra). */
    static constexpr unsigned
    baseLatency(InstClass cls)
    {
        switch (cls) {
          case InstClass::IntAlu: return 1;
          case InstClass::IntMult: return 3;
          case InstClass::Load: return 1;  // addr gen; cache added
          case InstClass::Store: return 1; // addr gen
          case InstClass::FpAlu: return 2;
          case InstClass::FpMult: return 4;
          case InstClass::CondBranch: return 1;
          case InstClass::Jump: return 1;
          case InstClass::Call: return 1;
          case InstClass::Return: return 1;
          case InstClass::Nop: return 1;
        }
        return 1;
    }
};

template <FieldsOf<CoreConfig> S, typename V>
void
visitFields(S &s, V &&v)
{
    v("fetchWidth", s.fetchWidth);
    v("decodeWidth", s.decodeWidth);
    v("issueWidth", s.issueWidth);
    v("commitWidth", s.commitWidth);
    v("maxTakenBranchesPerFetch", s.maxTakenBranchesPerFetch);
    v("ruuSize", s.ruuSize);
    v("lsqSize", s.lsqSize);
    v("numIntAlu", s.numIntAlu);
    v("numIntMult", s.numIntMult);
    v("numMemPorts", s.numMemPorts);
    v("numFpAlu", s.numFpAlu);
    v("numFpMult", s.numFpMult);
    v("pipelineStages", s.pipelineStages);
    v("fetchStages", s.fetchStages);
    v("decodeStages", s.decodeStages);
    v("extraExecLatency", s.extraExecLatency);
    v("extraDl1Latency", s.extraDl1Latency);
    v("extraMispredictPenalty", s.extraMispredictPenalty);
    v("btbMissPenalty", s.btbMissPenalty);
    v("oracle", s.oracle);
}

} // namespace stsim

#endif // STSIM_PIPELINE_CORE_CONFIG_HH
