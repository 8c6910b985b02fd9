/**
 * @file
 * Streaming results sinks for the experiment engine: SimResults are
 * committed to the sink in submission order as jobs complete, instead
 * of accumulating whole benchmark x policy matrices in memory. The
 * JSONL sink is the sharded runner's wire format (bit-exact doubles);
 * the CSV sink is the human/spreadsheet format.
 */

#ifndef STSIM_CORE_RESULTS_SINK_HH
#define STSIM_CORE_RESULTS_SINK_HH

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/sim_results.hh"

namespace stsim
{

/**
 * Receives one SimResults per job. The engine guarantees write() is
 * called exactly once per job, in submission order, serialized (never
 * concurrently), so implementations need no locking.
 */
class ResultsSink
{
  public:
    virtual ~ResultsSink();

    /** Commit the result of submission index @p index. */
    virtual void write(std::uint64_t index, const SimResults &r) = 0;

    /**
     * Hand the records written so far to their consumer. The engine
     * calls it after every commit that wrote records, and once at the
     * end of a wave.
     */
    virtual void flush() {}
};

/**
 * Thrown by a stream sink's flush() when its stream failed a write (a
 * vanished `| head` reader, a full disk). The engine aborts the wave
 * on it like on any throwing sink, so the caller applies
 * outputWriteFailed() on its own thread once the workers have stopped.
 */
class SinkWriteError : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

/**
 * One indexed JSON record per line (serde::resultRecordToJson).
 * Because every double is hex-float encoded, two JSONL streams are
 * byte-identical iff the results are bit-identical -- the property the
 * shard_equivalence gate diffs for. flush() throws SinkWriteError
 * when the stream has failed.
 */
class JsonlResultsSink : public ResultsSink
{
  public:
    /** Writes to @p out; the stream must outlive the sink. */
    explicit JsonlResultsSink(std::ostream &out) : out_(out) {}

    void write(std::uint64_t index, const SimResults &r) override;
    void flush() override;

  private:
    std::ostream &out_;
};

/**
 * Flat CSV: an "index" column, identity columns, every CoreStats
 * counter, and the headline doubles in round-trippable "%.17g" form.
 * The header row is emitted before the first record. flush() throws
 * SinkWriteError when the stream has failed.
 */
class CsvResultsSink : public ResultsSink
{
  public:
    explicit CsvResultsSink(std::ostream &out) : out_(out) {}

    void write(std::uint64_t index, const SimResults &r) override;
    void flush() override;

    /** The header row (no trailing newline). */
    static std::string header();

    /** One record as a CSV row (no trailing newline). */
    static std::string row(std::uint64_t index, const SimResults &r);

  private:
    std::ostream &out_;
    bool wroteHeader_ = false;
};

/**
 * Forwards to an inner sink with indices translated through a map --
 * how a shard reports results under their global manifest indices
 * while the engine numbers the shard's jobs 0..n-1.
 */
class IndexRemapSink : public ResultsSink
{
  public:
    IndexRemapSink(ResultsSink &inner,
                   std::vector<std::uint64_t> globalIndex)
        : inner_(inner), globalIndex_(std::move(globalIndex))
    {
    }

    void write(std::uint64_t index, const SimResults &r) override;
    void flush() override;

  private:
    ResultsSink &inner_;
    std::vector<std::uint64_t> globalIndex_;
};

/**
 * Open a file-backed sink (the one place the runner's --out/--format
 * policy lives). @p format selects "jsonl" or "csv"; when empty, a
 * ".csv" extension selects CSV and anything else JSONL. An empty path
 * or "-" writes to stdout. The returned sink owns its stream. Fatals
 * on an unopenable path or an unknown format.
 */
std::unique_ptr<ResultsSink> openSink(const std::string &path,
                                      const std::string &format = "");

/**
 * The one rule for a failed write to an output @p path (empty or "-"
 * for stdout), as openSink() resolves it. A stdout whose reader has
 * gone away (`... | head`, with SIGPIPE ignored) is a quiet exit 0:
 * the consumer got everything it wanted. Any other failure (disk full,
 * I/O error) is a fatal that names @p what and the path. Ends the
 * process, so call it from the main thread, never from a worker.
 */
[[noreturn]] void outputWriteFailed(const char *what,
                                    const std::string &path);

} // namespace stsim

#endif // STSIM_CORE_RESULTS_SINK_HH
