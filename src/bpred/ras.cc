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
Ras::state(serde::StateIO &io)
{
    io.begin("ras");
    io.fixed("stack", stack_);
    io.u64("top", top_);
    if (io.loading() && top_ >= stack_.size())
        stsim_fatal("state: RAS top %u out of range (%zu entries)", top_,
                    stack_.size());
    io.end("ras");
}

} // namespace stsim
