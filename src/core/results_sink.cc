#include "results_sink.hh"

#include <array>
#include <cerrno>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <ostream>
#include <type_traits>

#include <poll.h>

#include "common/logging.hh"
#include "core/job_serde.hh"

namespace stsim
{

ResultsSink::~ResultsSink() = default;

bool
stdoutClosedByPeer()
{
    struct pollfd p = {1 /* stdout */, POLLOUT, 0};
    if (::poll(&p, 1, 0) < 0)
        return false;
    return (p.revents & (POLLERR | POLLHUP)) != 0;
}

namespace
{

/**
 * A stdout stream failure is usually a vanished consumer (`| head`):
 * with SIGPIPE ignored the write fails, the stream poisons, and the
 * right behavior is a quiet, successful exit -- the downstream got
 * everything it wanted. Anything else stays fatal.
 */
[[noreturn]] void
streamWriteFailed(std::ostream &out, const char *what)
{
    if (&out == &std::cout && stdoutClosedByPeer()) {
        stsim_inform("%s: stdout consumer closed the pipe; exiting",
                     what);
        std::exit(0);
    }
    stsim_fatal("%s: stream write failed", what);
}

} // namespace

void
JsonlResultsSink::write(std::uint64_t index, const SimResults &r)
{
    out_ << serde::resultRecordToJson(index, r) << '\n';
}

void
JsonlResultsSink::flush()
{
    out_.flush();
    if (!out_)
        streamWriteFailed(out_, "JSONL results sink");
}

namespace
{

void
appendCell(std::string &out, std::uint64_t v)
{
    char buf[24];
    std::snprintf(buf, sizeof buf, "%" PRIu64, v);
    out += buf;
}

void
appendCell(std::string &out, double v)
{
    // 17 significant digits round-trip an IEEE binary64 exactly
    // through a correctly-rounding strtod.
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    out += buf;
}

void
appendCell(std::string &out, const std::string &s)
{
    // Built-in names are plain, but manifests may carry arbitrary
    // custom-profile/experiment strings: RFC 4180-quote when needed.
    if (s.find_first_of(",\"\n\r") == std::string::npos) {
        out += s;
        return;
    }
    out += '"';
    for (char c : s) {
        if (c == '"')
            out += '"';
        out += c;
    }
    out += '"';
}

/**
 * visitFields visitor behind the header and every row: the scalars in
 * field order, nested structs flattened to bare names, then each
 * per-unit array as <stem>_<unit> columns. Collects names when
 * @p header, values otherwise.
 */
struct CsvColumns
{
    bool header = false;
    std::string scalars = {};
    std::string arrays = {};

    template <typename T>
    void
    operator()(const char *key, const T &f)
    {
        if constexpr (std::is_arithmetic_v<T> ||
                      std::is_same_v<T, std::string>) {
            scalars += ',';
            if (header)
                scalars += key;
            else
                appendCell(scalars, f);
        } else {
            visitFields(f, *this);
        }
    }

    void
    operator()(const char *, const std::array<double, kNumPUnits> &f,
               const char *stem)
    {
        for (PUnit u : kAllPUnits) {
            arrays += ',';
            if (header) {
                arrays += stem;
                arrays += '_';
                arrays += punitName(u);
            } else {
                appendCell(arrays, f[static_cast<std::size_t>(u)]);
            }
        }
    }
};

} // namespace

std::string
CsvResultsSink::header()
{
    const SimResults none{};
    CsvColumns c{.header = true};
    visitFields(none, c);
    return "index" + c.scalars + c.arrays;
}

std::string
CsvResultsSink::row(std::uint64_t index, const SimResults &r)
{
    CsvColumns c{.header = false};
    visitFields(r, c);
    std::string out;
    appendCell(out, index);
    return out + c.scalars + c.arrays;
}

void
CsvResultsSink::write(std::uint64_t index, const SimResults &r)
{
    if (!wroteHeader_) {
        out_ << header() << '\n';
        wroteHeader_ = true;
    }
    out_ << row(index, r) << '\n';
}

void
CsvResultsSink::flush()
{
    out_.flush();
    if (!out_)
        streamWriteFailed(out_, "CSV results sink");
}

void
IndexRemapSink::write(std::uint64_t index, const SimResults &r)
{
    stsim_assert(index < globalIndex_.size(),
                 "remap sink: index %llu out of range",
                 static_cast<unsigned long long>(index));
    inner_.write(globalIndex_[index], r);
}

void
IndexRemapSink::flush()
{
    inner_.flush();
}

namespace
{

/** File-backed sink: owns the stream its inner formatter writes to. */
class OwningFileSink : public ResultsSink
{
  public:
    OwningFileSink(const std::string &path, bool csv)
    {
        file_.open(path);
        if (!file_)
            stsim_fatal("cannot open '%s' for writing: %s",
                        path.c_str(), std::strerror(errno));
        if (csv)
            inner_ = std::make_unique<CsvResultsSink>(file_);
        else
            inner_ = std::make_unique<JsonlResultsSink>(file_);
    }

    void
    write(std::uint64_t index, const SimResults &r) override
    {
        inner_->write(index, r);
    }

    void flush() override { inner_->flush(); }

  private:
    std::ofstream file_;
    std::unique_ptr<ResultsSink> inner_;
};

} // namespace

std::unique_ptr<ResultsSink>
openSink(const std::string &path, const std::string &format)
{
    bool csv = false;
    if (format == "csv") {
        csv = true;
    } else if (format.empty()) {
        csv = path.size() >= 4 &&
              path.compare(path.size() - 4, 4, ".csv") == 0;
    } else if (format != "jsonl") {
        stsim_fatal("unknown results format '%s' (jsonl or csv)",
                    format.c_str());
    }
    if (path.empty() || path == "-") {
        if (csv)
            return std::make_unique<CsvResultsSink>(std::cout);
        return std::make_unique<JsonlResultsSink>(std::cout);
    }
    return std::make_unique<OwningFileSink>(path, csv);
}

} // namespace stsim
