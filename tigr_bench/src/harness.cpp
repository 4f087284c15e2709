#include "harness.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include <sys/vfs.h>

namespace tigr::bench {

// --------------------------------------------------------------------
// Statistics

double
percentile(std::vector<double> values, double q)
{
    if (values.empty())
        throw std::invalid_argument("percentile of no samples");
    std::sort(values.begin(), values.end());
    const auto n = static_cast<double>(values.size());
    auto rank = static_cast<std::size_t>(std::ceil(q / 100.0 * n));
    rank = std::clamp<std::size_t>(rank, 1, values.size());
    return values[rank - 1];
}

double
median(std::vector<double> values)
{
    return percentile(std::move(values), 50.0);
}

std::optional<Tail>
supportedTail(std::vector<double> values, std::size_t beyond)
{
    const std::size_t n = values.size();
    if (n < 2 * beyond || n == 0)
        return std::nullopt;
    // Nearest rank ceil(p n / 100) leaves n - rank samples above it; the
    // largest whole p with n - rank >= beyond is floor(100 (n - b) / n).
    const auto p =
        static_cast<unsigned>((100 * (n - beyond)) / n);
    if (p < 50)
        return std::nullopt;
    Tail tail;
    tail.percentile = p;
    tail.value = percentile(std::move(values), p);
    tail.samples = n;
    return tail;
}

// --------------------------------------------------------------------
// JSON

Json &
Json::operator[](std::string_view key)
{
    if (std::holds_alternative<std::nullptr_t>(value_))
        value_ = Object{};
    auto &object = std::get<Object>(value_);
    auto it = object.find(key);
    if (it == object.end())
        it = object.emplace(std::string(key), Json()).first;
    return it->second;
}

void
Json::push(Json value)
{
    if (std::holds_alternative<std::nullptr_t>(value_))
        value_ = Array{};
    std::get<Array>(value_).push_back(std::move(value));
}

const Json *
Json::find(std::string_view key) const
{
    const auto *object = std::get_if<Object>(&value_);
    if (!object)
        return nullptr;
    auto it = object->find(key);
    return it == object->end() ? nullptr : &it->second;
}

bool
Json::isNumber() const
{
    return std::holds_alternative<double>(value_) ||
           std::holds_alternative<std::int64_t>(value_);
}

double
Json::number() const
{
    if (const auto *d = std::get_if<double>(&value_))
        return *d;
    if (const auto *i = std::get_if<std::int64_t>(&value_))
        return static_cast<double>(*i);
    return 0.0;
}

const std::string *
Json::string() const
{
    return std::get_if<std::string>(&value_);
}

const Json::Object *
Json::members() const
{
    return std::get_if<Object>(&value_);
}

const Json::Array *
Json::elements() const
{
    return std::get_if<Array>(&value_);
}

namespace {

void
appendEscaped(std::string &out, const std::string &text)
{
    out += '"';
    for (const char c : text) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    out += '"';
}

void
newline(std::string &out, int indent, int depth)
{
    if (indent <= 0)
        return;
    out += '\n';
    out.append(static_cast<std::size_t>(indent * depth), ' ');
}

} // namespace

void
Json::dumpTo(std::string &out, int indent, int depth) const
{
    if (std::holds_alternative<std::nullptr_t>(value_)) {
        out += "null";
    } else if (const auto *b = std::get_if<bool>(&value_)) {
        out += *b ? "true" : "false";
    } else if (const auto *d = std::get_if<double>(&value_)) {
        if (!std::isfinite(*d)) {
            out += "null";
        } else {
            char buf[32];
            const auto res = std::to_chars(buf, buf + sizeof buf, *d);
            out.append(buf, res.ptr);
        }
    } else if (const auto *i = std::get_if<std::int64_t>(&value_)) {
        out += std::to_string(*i);
    } else if (const auto *s = std::get_if<std::string>(&value_)) {
        appendEscaped(out, *s);
    } else if (const auto *a = std::get_if<Array>(&value_)) {
        out += '[';
        for (std::size_t k = 0; k < a->size(); ++k) {
            if (k)
                out += ',';
            newline(out, indent, depth + 1);
            (*a)[k].dumpTo(out, indent, depth + 1);
        }
        if (!a->empty())
            newline(out, indent, depth);
        out += ']';
    } else {
        const auto &o = std::get<Object>(value_);
        out += '{';
        bool first = true;
        for (const auto &[key, value] : o) {
            if (!first)
                out += ',';
            first = false;
            newline(out, indent, depth + 1);
            appendEscaped(out, key);
            out += indent > 0 ? ": " : ":";
            value.dumpTo(out, indent, depth + 1);
        }
        if (!o.empty())
            newline(out, indent, depth);
        out += '}';
    }
}

std::string
Json::dump(int indent) const
{
    std::string out;
    dumpTo(out, indent, 0);
    return out;
}

namespace {

/** Recursive-descent reader for the subset of JSON the bench writes
 *  (which is all of JSON except \u escapes beyond ASCII). */
class Parser
{
  public:
    explicit Parser(std::string_view text) : text_(text) {}

    Json
    document()
    {
        Json value = parseValue();
        skipSpace();
        if (pos_ != text_.size())
            fail("trailing characters");
        return value;
    }

  private:
    [[noreturn]] void
    fail(const char *what) const
    {
        throw std::runtime_error("json: " + std::string(what) +
                                 " at offset " + std::to_string(pos_));
    }

    void
    skipSpace()
    {
        while (pos_ < text_.size() &&
               (text_[pos_] == ' ' || text_[pos_] == '\n' ||
                text_[pos_] == '\r' || text_[pos_] == '\t'))
            ++pos_;
    }

    bool
    consume(std::string_view word)
    {
        if (text_.substr(pos_, word.size()) != word)
            return false;
        pos_ += word.size();
        return true;
    }

    void
    expect(char c)
    {
        skipSpace();
        if (pos_ >= text_.size() || text_[pos_] != c)
            fail("unexpected character");
        ++pos_;
    }

    std::string
    parseString()
    {
        expect('"');
        std::string out;
        while (pos_ < text_.size() && text_[pos_] != '"') {
            char c = text_[pos_++];
            if (c == '\\') {
                if (pos_ >= text_.size())
                    fail("dangling escape");
                c = text_[pos_++];
                switch (c) {
                  case 'n': out += '\n'; break;
                  case 't': out += '\t'; break;
                  case 'r': out += '\r'; break;
                  case 'u': {
                    if (pos_ + 4 > text_.size())
                        fail("short \\u escape");
                    const int code = std::stoi(
                        std::string(text_.substr(pos_, 4)), nullptr, 16);
                    pos_ += 4;
                    out += static_cast<char>(code);
                    break;
                  }
                  default: out += c;
                }
            } else {
                out += c;
            }
        }
        if (pos_ >= text_.size())
            fail("unterminated string");
        ++pos_;
        return out;
    }

    Json
    parseValue()
    {
        skipSpace();
        if (pos_ >= text_.size())
            fail("unexpected end");
        const char c = text_[pos_];
        if (c == '{') {
            ++pos_;
            Json object = Json::object();
            skipSpace();
            if (pos_ < text_.size() && text_[pos_] == '}') {
                ++pos_;
                return object;
            }
            for (;;) {
                std::string key = parseString();
                expect(':');
                object[key] = parseValue();
                skipSpace();
                if (pos_ < text_.size() && text_[pos_] == ',') {
                    ++pos_;
                    skipSpace();
                    continue;
                }
                expect('}');
                return object;
            }
        }
        if (c == '[') {
            ++pos_;
            Json array = Json::array();
            skipSpace();
            if (pos_ < text_.size() && text_[pos_] == ']') {
                ++pos_;
                return array;
            }
            for (;;) {
                array.push(parseValue());
                skipSpace();
                if (pos_ < text_.size() && text_[pos_] == ',') {
                    ++pos_;
                    continue;
                }
                expect(']');
                return array;
            }
        }
        if (c == '"')
            return Json(parseString());
        if (consume("true"))
            return Json(true);
        if (consume("false"))
            return Json(false);
        if (consume("null"))
            return Json();
        const std::size_t start = pos_;
        bool integral = true;
        while (pos_ < text_.size() &&
               std::string_view("+-0123456789.eE").find(text_[pos_]) !=
                   std::string_view::npos) {
            if (text_[pos_] == '.' || text_[pos_] == 'e' ||
                text_[pos_] == 'E')
                integral = false;
            ++pos_;
        }
        if (start == pos_)
            fail("unexpected character");
        const char *first = text_.data() + start;
        const char *last = text_.data() + pos_;
        if (integral) {
            std::int64_t value = 0;
            if (std::from_chars(first, last, value).ec == std::errc())
                return Json(value);
        }
        double value = 0.0;
        if (std::from_chars(first, last, value).ec != std::errc())
            fail("bad number");
        return Json(value);
    }

    std::string_view text_;
    std::size_t pos_ = 0;
};

} // namespace

Json
Json::parse(std::string_view text)
{
    return Parser(text).document();
}

void
writeJson(const std::filesystem::path &path, const Json &doc)
{
    if (path.has_parent_path())
        std::filesystem::create_directories(path.parent_path());
    std::ofstream out(path);
    out << doc.dump() << '\n';
    if (!out)
        throw std::runtime_error("cannot write " + path.string());
}

std::optional<Json>
readJson(const std::filesystem::path &path)
{
    std::ifstream in(path);
    if (!in)
        return std::nullopt;
    std::stringstream text;
    text << in.rdbuf();
    try {
        return Json::parse(text.str());
    } catch (const std::runtime_error &) {
        return std::nullopt;
    }
}

// --------------------------------------------------------------------
// Spans

SpanRecorder::SpanRecorder() : origin_(std::chrono::steady_clock::now()) {}

int
SpanRecorder::open(std::string name, std::uint64_t request)
{
    Record record;
    record.name = std::move(name);
    record.request = request;
    record.parent = stack_.empty() ? -1 : stack_.back();
    record.startNs = std::chrono::duration_cast<std::chrono::nanoseconds>(
                         std::chrono::steady_clock::now() - origin_)
                         .count();
    records_.push_back(std::move(record));
    const int index = static_cast<int>(records_.size()) - 1;
    stack_.push_back(index);
    return index;
}

void
SpanRecorder::close(int index, std::string_view rename,
                    std::string_view tag)
{
    if (stack_.empty() || stack_.back() != index)
        throw std::logic_error("span closed out of order");
    stack_.pop_back();
    Record &record = records_[static_cast<std::size_t>(index)];
    record.endNs = std::chrono::duration_cast<std::chrono::nanoseconds>(
                       std::chrono::steady_clock::now() - origin_)
                       .count();
    if (!rename.empty())
        record.name = rename;
    if (!tag.empty())
        record.tag = tag;
}

std::map<std::string, SpanRecorder::Summary>
SpanRecorder::summarize() const
{
    // Direct children of one span never overlap (one thread), so the
    // part of a span its children cover is the sum of their lengths.
    std::vector<double> childMs(records_.size(), 0.0);
    for (const Record &r : records_)
        if (r.parent >= 0 && r.endNs >= 0)
            childMs[static_cast<std::size_t>(r.parent)] +=
                static_cast<double>(r.endNs - r.startNs) / 1e6;

    std::map<std::string, std::vector<double>> durations;
    std::map<std::string, Summary> out;
    for (std::size_t i = 0; i < records_.size(); ++i) {
        const Record &r = records_[i];
        if (r.endNs < 0)
            continue;
        const double ms = static_cast<double>(r.endNs - r.startNs) / 1e6;
        durations[r.name].push_back(ms);
        Summary &s = out[r.name];
        s.totalMs += ms;
        s.selfMs += ms - childMs[i];
    }
    for (auto &[name, values] : durations) {
        Summary &s = out[name];
        s.count = values.size();
        s.p50Ms = percentile(values, 50.0);
        s.p90Ms = percentile(values, 90.0);
    }
    return out;
}

std::vector<double>
SpanRecorder::durationsMs(std::string_view name, std::string_view tag) const
{
    std::vector<double> out;
    for (const Record &r : records_)
        if (r.endNs >= 0 && r.name == name &&
            (tag.empty() || r.tag.find(tag) != std::string::npos))
            out.push_back(static_cast<double>(r.endNs - r.startNs) / 1e6);
    return out;
}

Json
SpanRecorder::chromeTrace() const
{
    Json events = Json::array();
    for (std::size_t i = 0; i < records_.size(); ++i) {
        const Record &r = records_[i];
        if (r.endNs < 0)
            continue;
        Json event = Json::object();
        event["name"] = r.name;
        event["cat"] = "host";
        event["ph"] = "X";
        event["pid"] = 1;
        event["tid"] = 1;
        event["ts"] = static_cast<double>(r.startNs) / 1e3;
        event["dur"] = static_cast<double>(r.endNs - r.startNs) / 1e3;
        Json &args = event["args"];
        args["request"] = r.request;
        args["span"] = static_cast<std::int64_t>(i);
        args["parent"] = r.parent;
        if (!r.tag.empty())
            args["tag"] = r.tag;
        events.push(std::move(event));
    }
    Json doc = Json::object();
    doc["traceEvents"] = std::move(events);
    doc["displayTimeUnit"] = "ms";
    doc["otherData"]["clock"] =
        "host wall time (steady_clock); non-deterministic";
    return doc;
}

Span::Span(SpanRecorder *recorder, const char *name, std::uint64_t request)
    : recorder_(recorder)
{
    if (recorder_)
        index_ = recorder_->open(name, request);
}

void
Span::end(std::string_view rename, std::string_view tag)
{
    if (recorder_ && index_ >= 0) {
        recorder_->close(index_, rename, tag);
        index_ = -1;
    }
}

// --------------------------------------------------------------------
// Process facts

double
peakRssMb()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0) {
            std::istringstream fields(line.substr(6));
            double kb = 0.0;
            fields >> kb;
            return kb / 1024.0;
        }
    }
    return 0.0;
}

bool
resetPeakRss()
{
    std::ofstream clear("/proc/self/clear_refs");
    clear << "5";
    clear.flush();
    return static_cast<bool>(clear);
}

std::string
filesystemType(const std::filesystem::path &path)
{
    struct statfs info {};
    if (::statfs(path.c_str(), &info) != 0)
        return "unknown";
    switch (static_cast<unsigned long>(info.f_type)) {
      case 0xEF53: return "ext4/ext3/ext2";
      case 0x01021994: return "tmpfs";
      case 0x794C7630: return "overlayfs";
      case 0x58465342: return "xfs";
      case 0x9123683E: return "btrfs";
      case 0x6969: return "nfs";
      default: {
        char buf[32];
        std::snprintf(buf, sizeof buf, "0x%lx",
                      static_cast<unsigned long>(info.f_type));
        return buf;
      }
    }
}

std::string
gitSha()
{
    std::string sha;
    if (FILE *pipe = ::popen("git rev-parse --short HEAD 2>/dev/null", "r")) {
        char buf[64];
        while (std::fgets(buf, sizeof buf, pipe))
            sha += buf;
        ::pclose(pipe);
    }
    while (!sha.empty() && (sha.back() == '\n' || sha.back() == ' '))
        sha.pop_back();
    return sha.empty() ? "unknown" : sha;
}

} // namespace tigr::bench
