/**
 * @file
 * Return-address stack with top-of-stack checkpointing for squash
 * recovery.
 */

#ifndef STSIM_BPRED_RAS_HH
#define STSIM_BPRED_RAS_HH

#include <cstdint>
#include <vector>

#include "common/types.hh"

namespace stsim
{

namespace serde
{
class StateIO;
} // namespace serde

/**
 * Circular return-address stack. Speculative pushes/pops are repaired
 * after a squash by restoring a (top index, top value) checkpoint, the
 * standard low-cost RAS recovery scheme.
 */
class Ras
{
  public:
    explicit Ras(std::size_t entries);

    /** Checkpoint for later restore. */
    struct Checkpoint
    {
        std::uint32_t top = 0;
        Addr topValue = 0;
    };

    /** Push a return address (on call). */
    void push(Addr ret_addr);

    /** Pop the predicted return address (on return); 0 when empty-ish. */
    Addr pop();

    /** Current recovery checkpoint. */
    Checkpoint checkpoint() const { return {top_, stack_[top_]}; }

    /** Restore a checkpoint taken before the squashed region. */
    void restore(const Checkpoint &cp);

    std::size_t size() const { return stack_.size(); }

    /** Save or restore the full stack contents and top index. */
    void state(serde::StateIO &io);

  private:
    std::vector<Addr> stack_;
    std::uint32_t top_ = 0; // index of current top entry
};

} // namespace stsim

#endif // STSIM_BPRED_RAS_HH
