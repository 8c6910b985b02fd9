#include "obs/trace.hh"

#include <cstdio>

#include "obs/metrics.hh"

namespace stsim
{
namespace obs
{

std::atomic<TraceSink *> TraceSink::g_{nullptr};

namespace
{

/**
 * Distinguishes sinks across install/destroy cycles so a thread-local
 * ring cached against a dead sink is never replayed into a new sink
 * that happens to reuse the same address.
 */
std::atomic<std::uint64_t> g_sinkGen{0};

struct TlsSlot
{
    std::uint64_t gen = 0;
    void *raw = nullptr; ///< the Ring; owned by the sink's rings_ list
};

thread_local TlsSlot tlsSlot;

/** Minimal JSON string escaping; span names are identifiers anyway. */
void
appendEscaped(std::string &out, const char *s)
{
    for (; *s; ++s) {
        char c = *s;
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x",
                          static_cast<unsigned>(c));
            out += buf;
        } else {
            out += c;
        }
    }
}

std::string
u64Str(std::uint64_t v)
{
    char buf[24];
    std::snprintf(buf, sizeof(buf), "%llu",
                  static_cast<unsigned long long>(v));
    return buf;
}

} // namespace

TraceSink::TraceSink(std::size_t ringCapacity)
    : ringCapacity_(ringCapacity ? ringCapacity : 1),
      start_(std::chrono::steady_clock::now()),
      gen_(g_sinkGen.fetch_add(1, std::memory_order_relaxed) + 1)
{
}

TraceSink::~TraceSink()
{
    TraceSink *self = this;
    g_.compare_exchange_strong(self, nullptr, std::memory_order_acq_rel);
}

void
TraceSink::install(TraceSink *sink)
{
    g_.store(sink, std::memory_order_release);
}

std::uint64_t
TraceSink::nowUs() const
{
    auto d = std::chrono::steady_clock::now() - start_;
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(d).count());
}

TraceSink::Ring *
TraceSink::ringForThisThread()
{
    if (tlsSlot.gen != gen_ || !tlsSlot.raw) {
        auto ring = std::make_shared<Ring>();
        ring->events.reserve(ringCapacity_);
        {
            std::lock_guard<std::mutex> lock(mu_);
            ring->tid = nextTid_++;
            rings_.push_back(ring);
        }
        tlsSlot.gen = gen_;
        tlsSlot.raw = ring.get();
    }
    return static_cast<Ring *>(tlsSlot.raw);
}

void
TraceSink::record(const char *name, std::uint64_t ts, std::uint64_t dur)
{
    Ring *ring = ringForThisThread();
    std::lock_guard<std::mutex> lock(ring->mu);
    if (ring->events.size() >= ringCapacity_) {
        ++ring->dropped;
        return;
    }
    ring->events.push_back(TraceEvent{name, ts, dur, ring->tid});
}

std::uint64_t
TraceSink::dropped() const
{
    std::uint64_t total = 0;
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto &ring : rings_) {
        std::lock_guard<std::mutex> rlock(ring->mu);
        total += ring->dropped;
    }
    return total;
}

std::uint64_t
TraceSink::recorded() const
{
    std::uint64_t total = 0;
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto &ring : rings_) {
        std::lock_guard<std::mutex> rlock(ring->mu);
        total += ring->events.size();
    }
    return total;
}

std::string
TraceSink::flushJson() const
{
    std::vector<std::shared_ptr<Ring>> rings;
    {
        std::lock_guard<std::mutex> lock(mu_);
        rings = rings_;
    }
    std::string out = "{\"traceEvents\":[";
    bool first = true;
    std::uint64_t droppedTotal = 0;
    for (const auto &ring : rings) {
        std::vector<TraceEvent> events;
        {
            std::lock_guard<std::mutex> rlock(ring->mu);
            events = ring->events;
            droppedTotal += ring->dropped;
        }
        for (const TraceEvent &e : events) {
            if (!first)
                out += ',';
            first = false;
            out += "{\"name\":\"";
            appendEscaped(out, e.name);
            out += "\",\"ph\":\"X\",\"ts\":";
            out += u64Str(e.ts);
            out += ",\"dur\":";
            out += u64Str(e.dur);
            out += ",\"pid\":1,\"tid\":";
            out += u64Str(e.tid);
            out += '}';
        }
    }
    out += "],\"displayTimeUnit\":\"ms\",\"otherData\":{\"dropped\":";
    out += u64Str(droppedTotal);
    out += "}}";
    return out;
}

bool
TraceSink::writeFile(const std::string &path) const
{
    return writeLineFile(path, flushJson());
}

} // namespace obs
} // namespace stsim
