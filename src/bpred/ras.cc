#include "ras.hh"

#include "common/logging.hh"
#include "core/state_serde.hh"

namespace stsim
{

Ras::Ras(std::size_t entries)
    : stack_(entries, 0)
{
    stsim_assert(entries >= 2, "RAS too small");
}

void
Ras::push(Addr ret_addr)
{
    top_ = (top_ + 1) % stack_.size();
    stack_[top_] = ret_addr;
}

Addr
Ras::pop()
{
    Addr v = stack_[top_];
    top_ = (top_ + stack_.size() - 1) % stack_.size();
    return v;
}

void
Ras::restore(const Checkpoint &cp)
{
    top_ = cp.top;
    stack_[top_] = cp.topValue;
}

void
Ras::saveState(serde::StateWriter &w) const
{
    w.begin("ras");
    w.u64Vec("stack", stack_);
    w.u64("top", top_);
    w.end("ras");
}

void
Ras::loadState(serde::StateReader &r)
{
    r.begin("ras");
    std::vector<std::uint64_t> stack = r.u64Vec("stack", stack_.size());
    for (std::size_t i = 0; i < stack_.size(); ++i)
        stack_[i] = stack[i];
    const std::uint64_t top = r.u64("top");
    if (top >= stack_.size())
        stsim_fatal("state: RAS top %llu out of range (%zu entries)",
                    static_cast<unsigned long long>(top), stack_.size());
    top_ = static_cast<std::uint32_t>(top);
    r.end("ras");
}

} // namespace stsim
