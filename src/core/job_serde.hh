/**
 * @file
 * Serialization layer for the out-of-process experiment engine: round
 * trips SimConfig / SimJob / SimResults through a compact line-based
 * JSON format (JSONL). Every double is encoded as a C99 hex-float
 * string ("0x1.3156440cec345p-9"), so parse(serialize(x)) reproduces x
 * bit for bit -- the property the sharded runner's merge-vs-in-process
 * equivalence gate relies on.
 *
 * One serialized value per line, no embedded newlines: a manifest is
 * one SimJob per line, a result stream is one indexed SimResults
 * record per line, and shard outputs can be merged by sorting lines on
 * their "index" field without re-serializing.
 *
 * Every struct maps to an object through its visitFields list
 * (common/fields.hh), so the writer and the strict reader cover the
 * same fields in the same order. The reader takes keys in any order,
 * ignores unknown keys, requires every listed key (an optional field
 * may be absent or null), requires arrays of exactly the declared
 * length, and rejects an integer above its field type's maximum.
 */

#ifndef STSIM_CORE_JOB_SERDE_HH
#define STSIM_CORE_JOB_SERDE_HH

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/parallel_harness.hh"
#include "core/sim_config.hh"
#include "core/sim_results.hh"

namespace stsim
{
namespace serde
{

/** Serialize a full SimConfig as one JSON object (one line). */
std::string toJson(const SimConfig &cfg);

/** Parse a SimConfig; fatals on malformed input. */
SimConfig configFromJson(std::string_view json);

/** Serialize a manifest entry: {"experiment": ..., "cfg": {...}}. */
std::string toJson(const SimJob &job);

/** Parse a manifest entry; fatals on malformed input. */
SimJob jobFromJson(std::string_view json);

/** Serialize a SimResults with bit-exact doubles. */
std::string toJson(const SimResults &r);

/** Parse a SimResults; fatals on malformed input. */
SimResults resultsFromJson(std::string_view json);

/**
 * Serialize one result-stream record: the submission index plus the
 * full SimResults. The index is what makes shard outputs mergeable
 * back into submission order.
 */
std::string resultRecordToJson(std::uint64_t index, const SimResults &r);

/** Parse a result-stream record into (index, results). */
std::pair<std::uint64_t, SimResults>
resultRecordFromJson(std::string_view json);

/** The submission index of a result-stream record (cheap field pick). */
std::uint64_t resultRecordIndex(std::string_view json);

/**
 * One parsed stsim_serve request frame. The job shape is a strict
 * superset of a manifest record -- any manifest line is a valid
 * request -- plus an optional client-chosen "id" echoed in the reply
 * (default 0), an optional per-request "deadlineMs", and three
 * jobless operator forms: {"op":"ping"} (liveness), {"op":"health"}
 * (stats + worker-fleet state), and {"op":"metrics"} (the process
 * metrics-registry snapshot).
 */
struct ServeRequest
{
    bool ping = false;
    bool health = false;
    bool metrics = false;
    std::uint64_t id = 0;
    std::uint64_t deadlineMs = 0; ///< 0 = no per-request deadline
    SimJob job; ///< valid only when !ping && !health && !metrics
};

/**
 * Result of a non-fatal parse entry point (serve requests, flat
 * records). Truthiness is success; on failure `error` carries the
 * strict parser's diagnostic: `if (ParseOutcome p = parseX(...)) ...
 * else use(p.error)`.
 */
struct ParseOutcome
{
    bool ok = true;
    std::string error;

    explicit operator bool() const { return ok; }
};

/**
 * Parse a request frame without fataling on hostile input: any
 * malformed frame (bad JSON, missing keys, wrong types -- anything
 * the strict parser or config decoder rejects) yields a failed
 * outcome carrying the diagnostic. The daemon's front door: garbage
 * must become an error reply, never a process exit.
 */
ParseOutcome parseServeRequest(std::string_view json,
                               ServeRequest &out);

/**
 * The one JSON object writer: fields land in call order with the byte
 * conventions every format here shares (string escaping, decimal
 * unsigned integers). str() and u64() write the flat records -- the
 * dispatch journal, serve replies -- that parseFlat reads back;
 * field() starts a key whose value the caller appends, which is how
 * the struct serializer nests objects and arrays.
 */
class FlatWriter
{
  public:
    FlatWriter() : out_("{") {}

    FlatWriter &str(const char *key, std::string_view value);
    FlatWriter &u64(const char *key, std::uint64_t value);

    /** Start field @p key; append its JSON value to the returned line. */
    std::string &field(const char *key);

    /** Close the object and take the line. The writer is spent. */
    std::string finish();

  private:
    std::string out_;
    bool first_ = true;
};

/** One parsed field of a flat record. */
struct FlatField
{
    std::string key;
    std::string value;     ///< decoded string, or raw integer token
    bool isString = false;
};

/**
 * Parse a flat single-line JSON record (the FlatWriter str/u64 shape:
 * string and unsigned-integer fields, no nesting) without fataling.
 * Journal replay uses the failed outcome to drop a torn trailing line
 * after a dispatcher crash instead of refusing to resume.
 */
ParseOutcome parseFlat(std::string_view json,
                       std::vector<FlatField> &out);

/**
 * Look up the first string field named @p key of a parsed flat
 * record; false when there is none.
 */
bool flatGet(const std::vector<FlatField> &rec, std::string_view key,
             std::string &out);

/**
 * Look up the first integer field named @p key; false when there is
 * none or its value exceeds 2^64 - 1.
 */
bool flatGet(const std::vector<FlatField> &rec, std::string_view key,
             std::uint64_t &out);

/** Bit-exact hex-float encoding of a double ("%a"). */
std::string doubleToHex(double d);

/** Inverse of doubleToHex; also accepts plain decimal doubles. */
double doubleFromHex(std::string_view s);

} // namespace serde
} // namespace stsim

#endif // STSIM_CORE_JOB_SERDE_HH
