/**
 * @file
 * Dynamic-instruction record produced by a workload generator and
 * consumed by the pipeline's fetch stage.
 */

#ifndef STSIM_TRACE_INSTRUCTION_HH
#define STSIM_TRACE_INSTRUCTION_HH

#include <cstdint>

#include "common/types.hh"

namespace stsim
{

/** Functional class of an instruction; drives FU choice and latency. */
enum class InstClass : std::uint8_t
{
    IntAlu,
    IntMult,
    Load,
    Store,
    FpAlu,
    FpMult,
    CondBranch,
    Jump,    // direct unconditional
    Call,    // direct call (pushes return address)
    Return,  // indirect through return-address stack
    Nop,
};

/** True for any control-transfer class. */
constexpr bool
isControl(InstClass cls)
{
    return cls == InstClass::CondBranch || cls == InstClass::Jump ||
           cls == InstClass::Call || cls == InstClass::Return;
}

/** True for memory classes. */
constexpr bool
isMemory(InstClass cls)
{
    return cls == InstClass::Load || cls == InstClass::Store;
}

/**
 * One dynamic instruction on the (correct or wrong) path.
 *
 * Register dependences are encoded as *producer distances*: source k
 * depends on the instruction fetched srcDist[k] slots earlier in the
 * dynamic stream (0 = no dependence). This is the standard synthetic-
 * trace encoding; the pipeline maps distances onto in-flight producers.
 */
struct TraceInst
{
    Addr pc = 0;
    InstClass cls = InstClass::Nop;
    std::uint8_t srcDist[2] = {0, 0};
    bool hasDest = false;

    /** Effective address (loads/stores only). */
    Addr memAddr = 0;

    /** Architectural branch outcome (control only; uncond => true). */
    bool taken = false;

    /** Architectural branch target (control only). */
    Addr target = 0;

    /** Next correct-path PC (valid on correct-path instructions). */
    Addr npc = 0;

    bool isBranch() const { return isControl(cls); }
    bool isCondBranch() const { return cls == InstClass::CondBranch; }
    bool isLoad() const { return cls == InstClass::Load; }
    bool isStore() const { return cls == InstClass::Store; }
};

} // namespace stsim

#endif // STSIM_TRACE_INSTRUCTION_HH
