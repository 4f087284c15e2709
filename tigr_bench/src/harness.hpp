/**
 * @file
 * Measurement plumbing of tigr_bench: percentiles, a small JSON value
 * with a stable key order, the bench-side span recorder behind the
 * traced run, and the process facts recorded in every result file.
 *
 * Nothing here reaches into the library: spans wrap public calls from
 * the outside, so the untraced run measures the program as shipped.
 */
#pragma once

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

namespace tigr::bench {

// --------------------------------------------------------------------
// Statistics

/** Nearest-rank percentile @p q (0 < q <= 100) of @p values: always a
 *  measured sample, never an interpolation. @p values must be
 *  non-empty. */
double percentile(std::vector<double> values, double q);

/** The median (nearest rank, so the lower middle of an even count). */
double median(std::vector<double> values);

/** A tail percentile together with the evidence behind it. */
struct Tail
{
    /** Whole percentile, e.g. 93 for p93. */
    unsigned percentile = 0;
    double value = 0.0;
    /** Samples the percentile was taken over. */
    std::size_t samples = 0;
};

/**
 * The highest whole percentile that still has at least @p beyond
 * samples above it — the choosing-metrics rule for reporting a tail.
 * std::nullopt when that percentile would fall below the median
 * (fewer than 2 * @p beyond samples).
 */
std::optional<Tail> supportedTail(std::vector<double> values,
                                  std::size_t beyond = 10);

// --------------------------------------------------------------------
// JSON

/**
 * A JSON document value. Objects keep their keys sorted, so every file
 * the bench writes lists its keys in one stable order no matter which
 * code path filled them in — result files diff cleanly run to run.
 */
class Json
{
  public:
    using Object = std::map<std::string, Json, std::less<>>;
    using Array = std::vector<Json>;

    Json() = default;
    Json(std::nullptr_t) {}
    Json(bool value) : value_(value) {}
    Json(double value) : value_(value) {}
    Json(int value) : value_(std::int64_t{value}) {}
    Json(unsigned value) : value_(std::int64_t{value}) {}
    Json(long value) : value_(std::int64_t{value}) {}
    Json(long long value) : value_(std::int64_t{value}) {}
    Json(unsigned long value) : value_(static_cast<std::int64_t>(value)) {}
    Json(unsigned long long value)
        : value_(static_cast<std::int64_t>(value))
    {
    }
    Json(std::string value) : value_(std::move(value)) {}
    Json(const char *value) : value_(std::string(value)) {}
    Json(std::string_view value) : value_(std::string(value)) {}

    static Json object() { return Json(Object{}); }
    static Json array() { return Json(Array{}); }

    /** Member @p key of an object, created (as null) when missing; a
     *  null value becomes an empty object first. */
    Json &operator[](std::string_view key);

    /** Append to an array (a null value becomes an empty array). */
    void push(Json value);

    /** Member @p key, or null when this is not an object or lacks it. */
    const Json *find(std::string_view key) const;

    bool isNumber() const;
    /** Numeric value (0 for non-numbers). */
    double number() const;
    const std::string *string() const;
    const Object *members() const;
    const Array *elements() const;

    /** Serialize; doubles print in shortest round-trip form, so a value
     *  keeps every digit it was measured with. */
    std::string dump(int indent = 2) const;

    /** Parse @p text. @throws std::runtime_error on malformed input. */
    static Json parse(std::string_view text);

  private:
    explicit Json(Object value) : value_(std::move(value)) {}
    explicit Json(Array value) : value_(std::move(value)) {}

    void dumpTo(std::string &out, int indent, int depth) const;

    std::variant<std::nullptr_t, bool, double, std::int64_t, std::string,
                 Array, Object>
        value_;
};

/** Write @p doc to @p path (parent directories created).
 *  @throws std::runtime_error on I/O failure. */
void writeJson(const std::filesystem::path &path, const Json &doc);

/** Read and parse @p path; std::nullopt when the file is missing or
 *  malformed. */
std::optional<Json> readJson(const std::filesystem::path &path);

// --------------------------------------------------------------------
// Spans

/**
 * Bench-side wall-clock spans around public calls, kept in memory and
 * written when the run ends. Single-threaded by design: the traced run
 * replays layer calls serially on the client thread. Spans opened while
 * another is open become its children, which is what self time (span
 * minus the part of it its children cover) is computed from.
 */
class SpanRecorder
{
  public:
    struct Record
    {
        std::string name;
        /** Free-form qualifier (e.g. "bfs/pull"), may be empty. */
        std::string tag;
        std::int64_t startNs = 0;
        std::int64_t endNs = -1;
        /** Index of the enclosing span, -1 for a root. */
        int parent = -1;
        /** Requests of one request stream share an id (0 = set-up). */
        std::uint64_t request = 0;
    };

    /** Aggregate of all closed spans of one name. */
    struct Summary
    {
        std::size_t count = 0;
        double p50Ms = 0.0;
        double p90Ms = 0.0;
        double totalMs = 0.0;
        double selfMs = 0.0;
    };

    SpanRecorder();

    /** Open a span; returns its index. */
    int open(std::string name, std::uint64_t request);
    /** Close the innermost open span, which must be @p index, optionally
     *  renaming it now that the call's outcome is known. */
    void close(int index, std::string_view rename = {},
               std::string_view tag = {});

    const std::vector<Record> &records() const { return records_; }

    /** Per-name aggregates (self time subtracts direct children). */
    std::map<std::string, Summary> summarize() const;

    /** Durations (ms) of the closed spans named @p name, optionally
     *  only those whose tag contains @p tag. */
    std::vector<double> durationsMs(std::string_view name,
                                    std::string_view tag = {}) const;

    /** The spans as a Chrome trace_event document. */
    Json chromeTrace() const;

  private:
    std::chrono::steady_clock::time_point origin_;
    std::vector<Record> records_;
    std::vector<int> stack_;
};

/** RAII span; a no-op (no allocation, no clock read) when the recorder
 *  is null, which is how the untraced run shares code with the traced
 *  one. */
class Span
{
  public:
    Span(SpanRecorder *recorder, const char *name,
         std::uint64_t request = 0);
    ~Span() { end(); }
    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

    /** Close now, renaming/tagging the span (idempotent). */
    void end(std::string_view rename = {}, std::string_view tag = {});

  private:
    SpanRecorder *recorder_;
    int index_ = -1;
};

// --------------------------------------------------------------------
// Process facts

/** VmHWM of this process in MiB (0 when /proc is unavailable). */
double peakRssMb();

/** Reset VmHWM to the current RSS through /proc/self/clear_refs;
 *  false when the kernel refuses. */
bool resetPeakRss();

/** Filesystem type name of @p path ("ext4/ext3/ext2", "tmpfs",
 *  "overlayfs", "xfs", ... or the hex magic). */
std::string filesystemType(const std::filesystem::path &path);

/** `git rev-parse --short HEAD` in the working directory, or "unknown"
 *  outside a git checkout. */
std::string gitSha();

/** Seconds since @p start on the steady clock. */
inline double
secondsSince(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
        .count();
}

/** Milliseconds since @p start on the steady clock. */
inline double
msSince(std::chrono::steady_clock::time_point start)
{
    return secondsSince(start) * 1000.0;
}

} // namespace tigr::bench
