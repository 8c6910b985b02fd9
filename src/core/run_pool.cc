#include "run_pool.hh"

#include <algorithm>
#include <cstdlib>
#include <optional>

#include "common/arg_parse.hh"
#include "common/logging.hh"

namespace stsim
{

unsigned
RunPool::defaultWorkers()
{
    if (const char *s = std::getenv("STSIM_JOBS")) {
        std::optional<std::uint64_t> v = args::decodeU64(s);
        if (v && *v >= 1)
            return static_cast<unsigned>(
                std::min<std::uint64_t>(*v, kMaxWorkers));
        stsim_warn("ignoring bad STSIM_JOBS='%s'", s);
    }
    unsigned hw = std::thread::hardware_concurrency();
    return hw ? hw : 1;
}

RunPool::RunPool(unsigned workers)
    : queueDepth_(obs::Registry::instance().gauge("runpool.queue_depth")),
      idleWorkers_(obs::Registry::instance().gauge("runpool.idle_workers"))
{
    if (workers == 0)
        workers = defaultWorkers();
    workers = std::min(workers, kMaxWorkers);
    threads_.reserve(workers);
    for (unsigned i = 0; i < workers; ++i)
        threads_.emplace_back([this] { workerLoop(); });
}

RunPool::~RunPool()
{
    {
        std::unique_lock<std::mutex> lock(mu_);
        cvIdle_.wait(lock, [this] { return inFlight_ == 0; });
        stopping_ = true;
    }
    cvWork_.notify_all();
    for (std::thread &t : threads_)
        t.join();
}

void
RunPool::submit(std::function<void()> job)
{
    {
        std::lock_guard<std::mutex> lock(mu_);
        stsim_assert(!stopping_, "submit on a stopping RunPool");
        queue_.push_back(std::move(job));
        ++inFlight_;
        queueDepth_.add(1);
    }
    cvWork_.notify_one(); // a busy pool's workers drain the queue
}

void
RunPool::wait()
{
    std::unique_lock<std::mutex> lock(mu_);
    cvIdle_.wait(lock, [this] { return inFlight_ == 0; });
    if (firstError_) {
        std::exception_ptr e = firstError_;
        firstError_ = nullptr;
        std::rethrow_exception(e);
    }
}

void
RunPool::parallelFor(std::size_t n,
                     const std::function<void(std::size_t)> &fn)
{
    for (std::size_t i = 0; i < n; ++i)
        submit([&fn, i] { fn(i); });
    wait();
}

void
RunPool::workerLoop()
{
    for (;;) {
        std::function<void()> job;
        {
            std::unique_lock<std::mutex> lock(mu_);
            while (!stopping_ && queue_.empty()) {
                idleWorkers_.add(1);
                cvWork_.wait(lock);
                idleWorkers_.sub(1);
            }
            if (queue_.empty())
                return; // stopping and drained
            job = std::move(queue_.front());
            queue_.pop_front();
            queueDepth_.sub(1);
        }
        try {
            job();
        } catch (...) {
            std::lock_guard<std::mutex> lock(mu_);
            if (!firstError_)
                firstError_ = std::current_exception();
        }
        {
            std::lock_guard<std::mutex> lock(mu_);
            --inFlight_;
            if (inFlight_ == 0)
                cvIdle_.notify_all();
        }
    }
}

} // namespace stsim
