#include "journal.hh"

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <fstream>
#include <sstream>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include "common/logging.hh"
#include "core/job_serde.hh"

namespace stsim
{
namespace dist
{

DispatchJournal::DispatchJournal(const std::string &path) : path_(path)
{
    // Repair a torn tail before appending: a crash mid-append leaves a
    // newline-less fragment that the next append would otherwise glue
    // onto, corrupting the line for every future replay. The repair
    // must mirror replay()'s tolerance exactly: a newline-less tail
    // that still parses is a record replay accepted, so complete it
    // with the missing newline; only an unparseable fragment -- the
    // one thing replay drops -- may be truncated away.
    {
        std::ifstream in(path, std::ios::binary);
        if (in) {
            std::ostringstream whole;
            whole << in.rdbuf();
            const std::string text = whole.str();
            if (!text.empty() && text.back() != '\n') {
                std::size_t nl = text.rfind('\n');
                std::size_t lineStart =
                    nl == std::string::npos ? 0 : nl + 1;
                std::vector<serde::FlatField> rec;
                if (serde::parseFlat(text.substr(lineStart), rec)) {
                    stsim_warn("journal: completing newline-less "
                               "final record of '%s'",
                               path.c_str());
                    std::ofstream fix(path, std::ios::binary |
                                                std::ios::app);
                    fix << '\n';
                    if (!fix.flush())
                        stsim_fatal("journal: cannot repair '%s' (%s)",
                                    path.c_str(),
                                    std::strerror(errno));
                } else {
                    stsim_warn("journal: truncating torn tail of "
                               "'%s' (%zu -> %zu bytes)",
                               path.c_str(), text.size(), lineStart);
                    if (::truncate(path.c_str(),
                                   static_cast<off_t>(lineStart)) !=
                        0) {
                        stsim_fatal("journal: cannot repair '%s' (%s)",
                                    path.c_str(),
                                    std::strerror(errno));
                    }
                }
            }
        }
    }
    fd_ = ::open(path.c_str(),
                 O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC, 0644);
    if (fd_ < 0) {
        stsim_fatal("journal: cannot open '%s' for appending (%s)",
                    path.c_str(), std::strerror(errno));
    }
}

DispatchJournal::~DispatchJournal()
{
    if (fd_ >= 0)
        ::close(fd_);
}

void
DispatchJournal::append(const std::string &line)
{
    std::string buf = line;
    buf += '\n';
    std::size_t off = 0;
    while (off < buf.size()) {
        ssize_t n = ::write(fd_, buf.data() + off, buf.size() - off);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            stsim_fatal("journal: write to '%s' failed (%s)",
                        path_.c_str(), std::strerror(errno));
        }
        off += static_cast<std::size_t>(n);
    }
    if (::fsync(fd_) != 0) {
        stsim_fatal("journal: fsync of '%s' failed (%s)",
                    path_.c_str(), std::strerror(errno));
    }
}

void
DispatchJournal::plan(const std::string &manifest,
                      std::uint64_t manifestHash, std::uint64_t shards,
                      std::uint64_t jobs, unsigned workers,
                      unsigned maxAttempts, unsigned maxConcurrent,
                      std::uint64_t timeoutMs)
{
    append(serde::FlatWriter()
               .str("type", "plan")
               .str("manifest", manifest)
               .u64("manifestHash", manifestHash)
               .u64("shards", shards)
               .u64("jobs", jobs)
               .u64("workers", workers)
               .u64("maxAttempts", maxAttempts)
               .u64("maxConcurrent", maxConcurrent)
               .u64("timeoutMs", timeoutMs)
               .finish());
}

void
DispatchJournal::launch(std::uint64_t shard, unsigned attempt,
                        const std::string &tmpBase)
{
    append(serde::FlatWriter()
               .str("type", "launch")
               .u64("shard", shard)
               .u64("attempt", attempt)
               .str("tmp", tmpBase)
               .finish());
}

void
DispatchJournal::done(std::uint64_t shard, unsigned attempt,
                      const std::string &outBase)
{
    append(serde::FlatWriter()
               .str("type", "done")
               .u64("shard", shard)
               .u64("attempt", attempt)
               .str("out", outBase)
               .finish());
}

void
DispatchJournal::fail(std::uint64_t shard, unsigned attempt,
                      const std::string &reason)
{
    append(serde::FlatWriter()
               .str("type", "fail")
               .u64("shard", shard)
               .u64("attempt", attempt)
               .str("reason", reason)
               .finish());
}

bool
DispatchJournal::exists(const std::string &path)
{
    struct stat st;
    return ::stat(path.c_str(), &st) == 0;
}

JournalState
DispatchJournal::replay(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        stsim_fatal("journal: cannot read '%s' (%s)", path.c_str(),
                    std::strerror(errno));
    std::ostringstream whole;
    whole << in.rdbuf();
    const std::string text = whole.str();

    JournalState st;
    bool sawPlan = false;
    std::size_t lineNo = 0;
    std::size_t pos = 0;
    while (pos < text.size()) {
        std::size_t nl = text.find('\n', pos);
        const bool torn = nl == std::string::npos;
        std::string line =
            text.substr(pos, torn ? std::string::npos : nl - pos);
        pos = torn ? text.size() : nl + 1;
        ++lineNo;
        if (line.empty())
            continue;

        std::vector<serde::FlatField> rec;
        if (!serde::parseFlat(line, rec)) {
            // The only line a crash can cut short is the final,
            // newline-less append; anything else unparseable is real
            // corruption.
            if (torn) {
                stsim_warn("journal: dropping torn trailing line %zu "
                           "of '%s'",
                           lineNo, path.c_str());
                break;
            }
            stsim_fatal("journal: '%s' is corrupt at line %zu",
                        path.c_str(), lineNo);
        }

        std::string type;
        if (!serde::flatGet(rec, "type", type))
            stsim_fatal("journal: '%s' line %zu has no type",
                        path.c_str(), lineNo);

        if (type == "plan") {
            if (sawPlan)
                stsim_fatal("journal: '%s' has two plan records",
                            path.c_str());
            sawPlan = true;
            std::uint64_t workers = 0, maxAttempts = 0;
            std::uint64_t maxConcurrent = 0;
            if (!serde::flatGet(rec, "manifest", st.manifest) ||
                !serde::flatGet(rec, "manifestHash", st.manifestHash) ||
                !serde::flatGet(rec, "shards", st.shards) ||
                !serde::flatGet(rec, "jobs", st.jobs) ||
                !serde::flatGet(rec, "workers", workers) ||
                !serde::flatGet(rec, "maxAttempts", maxAttempts) ||
                !serde::flatGet(rec, "maxConcurrent", maxConcurrent) ||
                !serde::flatGet(rec, "timeoutMs", st.timeoutMs) ||
                st.shards == 0 || maxAttempts == 0) {
                stsim_fatal("journal: '%s' has a malformed plan",
                            path.c_str());
            }
            st.workers = static_cast<unsigned>(workers);
            st.maxAttempts = static_cast<unsigned>(maxAttempts);
            st.maxConcurrent = static_cast<unsigned>(maxConcurrent);
            st.shard.assign(st.shards, ShardJournalState{});
            continue;
        }

        if (!sawPlan)
            stsim_fatal("journal: '%s' line %zu precedes the plan",
                        path.c_str(), lineNo);
        std::uint64_t shard = 0, attempt = 0;
        if (!serde::flatGet(rec, "shard", shard) ||
            !serde::flatGet(rec, "attempt", attempt) ||
            shard >= st.shards) {
            stsim_fatal("journal: '%s' line %zu has a bad shard record",
                        path.c_str(), lineNo);
        }
        ShardJournalState &s = st.shard[shard];
        if (type == "launch") {
            s.launches = std::max(
                s.launches, static_cast<unsigned>(attempt));
        } else if (type == "fail") {
            ++s.failures;
        } else if (type == "done") {
            if (!serde::flatGet(rec, "out", s.out))
                stsim_fatal("journal: '%s' line %zu: done without out",
                            path.c_str(), lineNo);
            s.done = true;
        } else {
            stsim_fatal("journal: '%s' line %zu has unknown type '%s'",
                        path.c_str(), lineNo, type.c_str());
        }
    }
    if (!sawPlan)
        stsim_fatal("journal: '%s' holds no plan record", path.c_str());
    return st;
}

} // namespace dist
} // namespace stsim
