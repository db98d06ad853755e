#include "obs/report.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <iomanip>
#include <limits>
#include <map>
#include <set>
#include <sstream>
#include <utility>

#include "obs/stat.h"

namespace mde::obs {

namespace {

// ---------------------------------------------------------------------------
// Minimal JSON DOM + recursive-descent parser. obs sits below every other
// library (and the container has no JSON dependency), so the report reader
// carries its own ~150-line parser: objects keep insertion order, numbers
// are doubles, and parse failure reports an offset for diagnostics.
// ---------------------------------------------------------------------------

struct Json {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };
  Type type = Type::kNull;
  bool b = false;
  double num = 0.0;
  std::string str;
  std::vector<Json> arr;
  std::vector<std::pair<std::string, Json>> obj;

  const Json* Get(const std::string& key) const {
    for (const auto& [k, v] : obj) {
      if (k == key) return &v;
    }
    return nullptr;
  }
  double NumOr(double def) const {
    return type == Type::kNumber ? num : def;
  }
};

class JsonParser {
 public:
  /// Object/array nesting bound. obs writes at most ~4 levels (trace
  /// events, flight contexts); past the bound parsing fails instead of
  /// recursing until the stack overflows.
  static constexpr int kMaxDepth = 64;

  explicit JsonParser(const std::string& text) : s_(text) {}

  bool Parse(Json* out, std::string* error) {
    ok_ = true;
    pos_ = 0;
    depth_ = 0;
    ParseValue(out);
    SkipSpace();
    if (ok_ && pos_ != s_.size()) Fail("trailing characters");
    if (!ok_ && error != nullptr) {
      *error = err_ + " at offset " + std::to_string(pos_);
    }
    return ok_;
  }

 private:
  void SkipSpace() {
    while (pos_ < s_.size() &&
           (s_[pos_] == ' ' || s_[pos_] == '\t' || s_[pos_] == '\n' ||
            s_[pos_] == '\r')) {
      ++pos_;
    }
  }

  void Fail(const char* what) {
    if (ok_) {
      ok_ = false;
      err_ = what;
    }
  }

  bool Consume(char c) {
    SkipSpace();
    if (pos_ < s_.size() && s_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  void Expect(char c, const char* what) {
    if (!Consume(c)) Fail(what);
  }

  void ParseValue(Json* out) {
    SkipSpace();
    if (pos_ >= s_.size()) {
      Fail("unexpected end of input");
      return;
    }
    const char c = s_[pos_];
    if (c == '{' || c == '[') {
      if (depth_ == kMaxDepth) {
        Fail("nesting too deep");
        return;
      }
      ++depth_;
      if (c == '{') {
        ParseObject(out);
      } else {
        ParseArray(out);
      }
      --depth_;
    } else if (c == '"') {
      out->type = Json::Type::kString;
      ParseString(&out->str);
    } else if (c == 't' || c == 'f') {
      const char* word = c == 't' ? "true" : "false";
      if (s_.compare(pos_, c == 't' ? 4 : 5, word) == 0) {
        out->type = Json::Type::kBool;
        out->b = c == 't';
        pos_ += c == 't' ? 4 : 5;
      } else {
        Fail("bad literal");
      }
    } else if (c == 'n') {
      if (s_.compare(pos_, 4, "null") == 0) {
        out->type = Json::Type::kNull;
        pos_ += 4;
      } else {
        Fail("bad literal");
      }
    } else {
      ParseNumber(out);
    }
  }

  void ParseObject(Json* out) {
    out->type = Json::Type::kObject;
    Expect('{', "expected '{'");
    if (Consume('}')) return;
    while (ok_) {
      std::string key;
      SkipSpace();
      ParseString(&key);
      Expect(':', "expected ':'");
      Json value;
      ParseValue(&value);
      out->obj.emplace_back(std::move(key), std::move(value));
      if (Consume('}')) return;
      Expect(',', "expected ',' or '}'");
    }
  }

  void ParseArray(Json* out) {
    out->type = Json::Type::kArray;
    Expect('[', "expected '['");
    if (Consume(']')) return;
    while (ok_) {
      Json value;
      ParseValue(&value);
      out->arr.push_back(std::move(value));
      if (Consume(']')) return;
      Expect(',', "expected ',' or ']'");
    }
  }

  void ParseString(std::string* out) {
    if (pos_ >= s_.size() || s_[pos_] != '"') {
      Fail("expected string");
      return;
    }
    ++pos_;
    out->clear();
    while (pos_ < s_.size() && s_[pos_] != '"') {
      char c = s_[pos_++];
      if (c == '\\' && pos_ < s_.size()) {
        const char e = s_[pos_++];
        switch (e) {
          case 'n': c = '\n'; break;
          case 't': c = '\t'; break;
          case 'r': c = '\r'; break;
          case 'b': c = '\b'; break;
          case 'f': c = '\f'; break;
          case 'u':
            // Escaped BMP code point; metric/span names are ASCII, so a
            // replacement character preserves well-formedness.
            pos_ = std::min(s_.size(), pos_ + 4);
            c = '?';
            break;
          default: c = e; break;
        }
      }
      out->push_back(c);
    }
    if (pos_ >= s_.size()) {
      Fail("unterminated string");
      return;
    }
    ++pos_;  // closing quote
  }

  void ParseNumber(Json* out) {
    const size_t start = pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) != 0 ||
            s_[pos_] == '-' || s_[pos_] == '+' || s_[pos_] == '.' ||
            s_[pos_] == 'e' || s_[pos_] == 'E')) {
      ++pos_;
    }
    if (pos_ == start) {
      Fail("expected value");
      return;
    }
    out->type = Json::Type::kNumber;
    out->num = std::strtod(s_.substr(start, pos_ - start).c_str(), nullptr);
  }

  const std::string& s_;
  size_t pos_ = 0;
  int depth_ = 0;
  bool ok_ = true;
  std::string err_;
};

// ---------------------------------------------------------------------------
// Report model.
// ---------------------------------------------------------------------------

struct SpanAgg {
  uint64_t calls = 0;
  double incl_us = 0.0;
  double self_us = 0.0;
};

struct HistFinal {
  uint64_t count = 0;
  double sum = 0.0;
  std::vector<double> bounds;
  std::vector<uint64_t> buckets;
};

/// One row of the per-query attribution table (obs/context.h), as sampled
/// into the JSONL "queries" object. Fields are cumulative, so the last
/// sample wins.
struct QueryAgg {
  std::string tag;
  double cpu_ns = 0.0;
  double tasks = 0.0;
  double spans = 0.0;
  double rows_in = 0.0;
  double rows_out = 0.0;
  double vg_draws = 0.0;
  double bundle_bytes = 0.0;
  double cache_hits = 0.0;
};

struct MetricsSeries {
  double t_first_ms = 0.0;
  double t_last_ms = 0.0;
  size_t samples = 0;
  std::map<std::string, double> counter_first;
  std::map<std::string, double> counter_last;
  std::map<std::string, double> gauges;  // final values
  std::map<std::string, HistFinal> hists;
  std::map<std::string, QueryAgg> queries;  // final values, keyed by "0x.."
  bool have_mem = false;
  double rss_kb = 0.0;
  double peak_rss_kb = 0.0;
};

/// Same-thread stack replay over start-ordered events (the FlameSummary
/// algorithm, applied to the parsed file instead of the live rings).
std::map<std::string, SpanAgg> AggregateSpans(const Json& trace) {
  struct Ev {
    std::string name;
    double ts = 0.0, dur = 0.0;
    double tid = 0.0;
  };
  std::vector<Ev> events;
  if (const Json* list = trace.Get("traceEvents");
      list != nullptr && list->type == Json::Type::kArray) {
    events.reserve(list->arr.size());
    for (const Json& e : list->arr) {
      Ev ev;
      if (const Json* n = e.Get("name")) ev.name = n->str;
      ev.ts = e.Get("ts") != nullptr ? e.Get("ts")->NumOr(0.0) : 0.0;
      ev.dur = e.Get("dur") != nullptr ? e.Get("dur")->NumOr(0.0) : 0.0;
      ev.tid = e.Get("tid") != nullptr ? e.Get("tid")->NumOr(0.0) : 0.0;
      if (!ev.name.empty()) events.push_back(std::move(ev));
    }
  }
  std::stable_sort(events.begin(), events.end(),
                   [](const Ev& a, const Ev& b) {
                     if (a.tid != b.tid) return a.tid < b.tid;
                     if (a.ts != b.ts) return a.ts < b.ts;
                     return a.dur > b.dur;  // parent before child on a tie
                   });
  std::map<std::string, SpanAgg> agg;
  struct Open {
    double end;
    std::string name;
  };
  std::vector<Open> stack;
  double current_tid = std::numeric_limits<double>::quiet_NaN();
  for (const Ev& e : events) {
    if (e.tid != current_tid) {
      stack.clear();
      current_tid = e.tid;
    }
    SpanAgg& a = agg[e.name];
    ++a.calls;
    a.incl_us += e.dur;
    a.self_us += e.dur;
    while (!stack.empty() && stack.back().end <= e.ts) stack.pop_back();
    if (!stack.empty()) agg[stack.back().name].self_us -= e.dur;
    stack.push_back({e.ts + e.dur, e.name});
  }
  return agg;
}

/// Histogram counts arrive as JSON doubles. Casting a negative, NaN or
/// >= 2^64 value to uint64_t is undefined behaviour, so such a count is
/// rejected instead of converted.
bool CountFromJson(const Json* v, uint64_t* out) {
  const double d = v != nullptr ? v->NumOr(0.0) : 0.0;
  if (!(d >= 0.0 && d < 18446744073709551616.0)) return false;
  *out = static_cast<uint64_t>(d);
  return true;
}

bool ParseMetricsJsonl(const std::string& jsonl, MetricsSeries* out,
                       std::string* error) {
  size_t line_no = 0;
  size_t begin = 0;
  while (begin < jsonl.size()) {
    size_t end = jsonl.find('\n', begin);
    if (end == std::string::npos) end = jsonl.size();
    const std::string line = jsonl.substr(begin, end - begin);
    begin = end + 1;
    ++line_no;
    if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
    Json rec;
    std::string perr;
    if (!JsonParser(line).Parse(&rec, &perr)) {
      if (error != nullptr) {
        *error = "metrics line " + std::to_string(line_no) + ": " + perr;
      }
      return false;
    }
    const double t_ms =
        rec.Get("t_ms") != nullptr ? rec.Get("t_ms")->NumOr(0.0) : 0.0;
    if (out->samples == 0) out->t_first_ms = t_ms;
    out->t_last_ms = t_ms;
    if (const Json* counters = rec.Get("counters")) {
      for (const auto& [name, c] : counters->obj) {
        const double v =
            c.Get("v") != nullptr ? c.Get("v")->NumOr(0.0) : c.NumOr(0.0);
        if (out->samples == 0) out->counter_first[name] = v;
        out->counter_first.try_emplace(name, 0.0);
        out->counter_last[name] = v;
      }
    }
    if (const Json* gauges = rec.Get("gauges")) {
      for (const auto& [name, g] : gauges->obj) {
        out->gauges[name] = g.NumOr(0.0);
      }
    }
    if (const Json* hists = rec.Get("hist")) {
      for (const auto& [name, h] : hists->obj) {
        HistFinal hf;
        bool counts_ok = CountFromJson(h.Get("count"), &hf.count);
        hf.sum = h.Get("sum") != nullptr ? h.Get("sum")->NumOr(0.0) : 0.0;
        if (const Json* bounds = h.Get("bounds")) {
          for (const Json& b : bounds->arr) hf.bounds.push_back(b.NumOr(0.0));
        }
        if (const Json* buckets = h.Get("buckets")) {
          for (const Json& b : buckets->arr) {
            hf.buckets.emplace_back();
            counts_ok = counts_ok && CountFromJson(&b, &hf.buckets.back());
          }
        }
        if (!counts_ok) {
          if (error != nullptr) {
            *error = "metrics line " + std::to_string(line_no) +
                     ": histogram " + name +
                     " has a count outside [0, 2^64)";
          }
          return false;
        }
        out->hists[name] = std::move(hf);
      }
    }
    if (const Json* queries = rec.Get("queries")) {
      for (const auto& [fp, q] : queries->obj) {
        QueryAgg agg;
        if (const Json* t = q.Get("tag")) agg.tag = t->str;
        const auto field = [&q](const char* key) {
          const Json* v = q.Get(key);
          return v != nullptr ? v->NumOr(0.0) : 0.0;
        };
        agg.cpu_ns = field("cpu_ns");
        agg.tasks = field("tasks");
        agg.spans = field("spans");
        agg.rows_in = field("rows_in");
        agg.rows_out = field("rows_out");
        agg.vg_draws = field("vg_draws");
        agg.bundle_bytes = field("bundle_bytes");
        agg.cache_hits = field("cache_hits");
        out->queries[fp] = std::move(agg);
      }
    }
    if (const Json* mem = rec.Get("mem")) {
      out->have_mem = true;
      if (const Json* v = mem->Get("rss_kb")) out->rss_kb = v->NumOr(0.0);
      if (const Json* v = mem->Get("peak_rss_kb")) {
        out->peak_rss_kb = v->NumOr(0.0);
      }
    }
    ++out->samples;
  }
  return true;
}

// ---------------------------------------------------------------------------
// Rendering.
// ---------------------------------------------------------------------------

/// Emits either a Markdown pipe table or aligned plain-text columns.
class TableWriter {
 public:
  TableWriter(std::vector<std::string> headers, bool markdown)
      : headers_(std::move(headers)), markdown_(markdown) {}

  void AddRow(std::vector<std::string> row) { rows_.push_back(std::move(row)); }
  bool empty() const { return rows_.empty(); }

  void Render(std::ostream& os) const {
    std::vector<size_t> width(headers_.size(), 0);
    for (size_t c = 0; c < headers_.size(); ++c) width[c] = headers_[c].size();
    for (const auto& row : rows_) {
      for (size_t c = 0; c < row.size() && c < width.size(); ++c) {
        width[c] = std::max(width[c], row[c].size());
      }
    }
    auto line = [&](const std::vector<std::string>& cells) {
      for (size_t c = 0; c < headers_.size(); ++c) {
        const std::string& cell = c < cells.size() ? cells[c] : kEmpty;
        if (markdown_) {
          os << "| " << cell << " ";
        } else {
          os << cell;
          for (size_t p = cell.size(); p < width[c] + 2; ++p) os << ' ';
        }
      }
      if (markdown_) os << "|";
      os << "\n";
    };
    line(headers_);
    if (markdown_) {
      for (size_t c = 0; c < headers_.size(); ++c) os << "|---";
      os << "|\n";
    } else {
      std::vector<std::string> rules;
      for (size_t c = 0; c < headers_.size(); ++c) {
        rules.push_back(std::string(width[c], '-'));
      }
      line(rules);
    }
    for (const auto& row : rows_) line(row);
  }

 private:
  static const std::string kEmpty;
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
  bool markdown_;
};

const std::string TableWriter::kEmpty;

std::string Fixed(double v, int digits = 3) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(digits) << v;
  return os.str();
}

std::string Compact(double v) {
  std::ostringstream os;
  os << std::setprecision(9) << v;
  return os.str();
}

/// The verdict a health gauge encodes, or "unknown (<value>)" when the
/// value is none of the Verdict enumerators (casting an out-of-range or NaN
/// double to int would be undefined behaviour).
std::string VerdictCell(double v) {
  using Verdict = ConvergenceMonitor::Verdict;
  for (Verdict verdict :
       {Verdict::kImproving, Verdict::kStalled, Verdict::kDiverged}) {
    if (v == static_cast<double>(static_cast<int>(verdict))) {
      return ConvergenceMonitor::VerdictName(verdict);
    }
  }
  return "unknown (" + Compact(v) + ")";
}

void Heading(std::ostream& os, bool markdown, const std::string& title) {
  if (markdown) {
    os << "## " << title << "\n\n";
  } else {
    os << title << "\n" << std::string(title.size(), '-') << "\n";
  }
}

}  // namespace

HistogramQuantileResult HistogramQuantileEx(
    const std::vector<double>& bounds, const std::vector<uint64_t>& buckets,
    double q) {
  uint64_t total = 0;
  for (uint64_t b : buckets) total += b;
  if (total == 0) return {0.0, false};
  const double target = q * static_cast<double>(total);
  double cum = 0.0;
  for (size_t b = 0; b < buckets.size(); ++b) {
    const double next = cum + static_cast<double>(buckets[b]);
    if (next >= target || b + 1 == buckets.size()) {
      if (b >= bounds.size()) {
        // +inf bucket: no finite upper edge to interpolate toward. The
        // value is a lower bound on the true quantile, not an estimate —
        // flag it so renderers don't silently underreport the tail.
        return {bounds.empty() ? 0.0 : bounds.back(), true};
      }
      const double lo = b == 0 ? std::min(0.0, bounds[0]) : bounds[b - 1];
      const double hi = bounds[b];
      if (buckets[b] == 0) return {hi, false};
      const double frac =
          (target - cum) / static_cast<double>(buckets[b]);
      return {lo + std::clamp(frac, 0.0, 1.0) * (hi - lo), false};
    }
    cum = next;
  }
  return {bounds.empty() ? 0.0 : bounds.back(), false};
}

double HistogramQuantile(const std::vector<double>& bounds,
                         const std::vector<uint64_t>& buckets, double q) {
  return HistogramQuantileEx(bounds, buckets, q).value;
}

bool RenderRunReport(const std::string& trace_json,
                     const std::string& metrics_jsonl,
                     const RunReportOptions& options, std::string* out,
                     std::string* error) {
  Json trace;
  std::map<std::string, SpanAgg> spans;
  if (!trace_json.empty()) {
    std::string perr;
    if (!JsonParser(trace_json).Parse(&trace, &perr)) {
      if (error != nullptr) *error = "trace: " + perr;
      return false;
    }
    spans = AggregateSpans(trace);
  }
  MetricsSeries series;
  if (!metrics_jsonl.empty() &&
      !ParseMetricsJsonl(metrics_jsonl, &series, error)) {
    return false;
  }

  const bool md = options.markdown;
  std::ostringstream os;
  if (md) {
    os << "# mde run report\n\n";
  } else {
    os << "=== mde run report ===\n\n";
  }

  // --- Run summary -------------------------------------------------------
  Heading(os, md, "Run summary");
  {
    TableWriter t({"what", "value"}, md);
    if (!spans.empty()) {
      uint64_t calls = 0;
      double total_self_us = 0.0;
      for (const auto& [name, a] : spans) {
        calls += a.calls;
        total_self_us += a.self_us;
      }
      t.AddRow({"trace spans", std::to_string(calls)});
      t.AddRow({"span self time", Fixed(total_self_us / 1000.0) + " ms"});
    }
    if (series.samples > 0) {
      t.AddRow({"metrics samples", std::to_string(series.samples)});
      t.AddRow({"metrics window",
                Fixed(series.t_last_ms - series.t_first_ms) + " ms"});
    }
    if (series.have_mem) {
      t.AddRow({"final RSS", Fixed(series.rss_kb / 1024.0, 1) + " MiB"});
      t.AddRow({"peak RSS", Fixed(series.peak_rss_kb / 1024.0, 1) + " MiB"});
    }
    if (t.empty()) t.AddRow({"(no inputs)", ""});
    t.Render(os);
    os << "\n";
  }

  // --- Top self-time spans ----------------------------------------------
  if (!spans.empty()) {
    Heading(os, md, "Top self-time spans");
    std::vector<std::pair<std::string, SpanAgg>> rows(spans.begin(),
                                                      spans.end());
    std::sort(rows.begin(), rows.end(), [](const auto& a, const auto& b) {
      return a.second.self_us > b.second.self_us;
    });
    double total_self = 0.0;
    for (const auto& [name, a] : rows) total_self += std::max(a.self_us, 0.0);
    TableWriter t({"span", "calls", "incl ms", "self ms", "self %"}, md);
    for (size_t i = 0; i < rows.size() && i < options.top_spans; ++i) {
      const auto& [name, a] = rows[i];
      const double pct =
          total_self > 0.0 ? 100.0 * std::max(a.self_us, 0.0) / total_self
                           : 0.0;
      t.AddRow({name, std::to_string(a.calls), Fixed(a.incl_us / 1000.0),
                Fixed(a.self_us / 1000.0), Fixed(pct, 1)});
    }
    t.Render(os);
    if (rows.size() > options.top_spans) {
      os << "(" << rows.size() - options.top_spans << " more spans)\n";
    }
    os << "\n";
  }

  // --- Counters ----------------------------------------------------------
  if (!series.counter_last.empty()) {
    Heading(os, md, "Counters");
    const double window_s =
        (series.t_last_ms - series.t_first_ms) / 1000.0;
    std::vector<std::pair<std::string, double>> rows(
        series.counter_last.begin(), series.counter_last.end());
    std::sort(rows.begin(), rows.end(), [](const auto& a, const auto& b) {
      if (a.second != b.second) return a.second > b.second;
      return a.first < b.first;
    });
    TableWriter t({"counter", "total", "rate/s"}, md);
    for (size_t i = 0; i < rows.size() && i < options.top_counters; ++i) {
      const auto& [name, total] = rows[i];
      const double delta = total - series.counter_first[name];
      t.AddRow({name, Compact(total),
                window_s > 0.0 ? Fixed(delta / window_s, 1) : "-"});
    }
    t.Render(os);
    if (rows.size() > options.top_counters) {
      os << "(" << rows.size() - options.top_counters << " more counters)\n";
    }
    os << "\n";
  }

  // --- Per-query attribution --------------------------------------------
  if (!series.queries.empty()) {
    Heading(os, md, "Per-query attribution");
    std::vector<std::pair<std::string, QueryAgg>> rows(series.queries.begin(),
                                                       series.queries.end());
    std::sort(rows.begin(), rows.end(), [](const auto& a, const auto& b) {
      if (a.second.cpu_ns != b.second.cpu_ns) {
        return a.second.cpu_ns > b.second.cpu_ns;
      }
      return a.first < b.first;
    });
    TableWriter t({"query", "tag", "cpu ms", "tasks", "rows in", "rows out",
                   "vg draws", "bundle MiB", "cache hits"},
                  md);
    for (const auto& [fp, q] : rows) {
      t.AddRow({fp, q.tag, Fixed(q.cpu_ns / 1e6), Compact(q.tasks),
                Compact(q.rows_in), Compact(q.rows_out), Compact(q.vg_draws),
                Fixed(q.bundle_bytes / (1024.0 * 1024.0), 2),
                Compact(q.cache_hits)});
    }
    t.Render(os);
    os << "\n";
  }

  // --- Histogram quantiles ----------------------------------------------
  if (!series.hists.empty()) {
    Heading(os, md, "Histogram quantiles (bucket interpolation)");
    TableWriter t({"histogram", "count", "mean", "p50", "p90", "p99"}, md);
    // Overflow-bucket quantiles are lower bounds, not estimates: render
    // them as ">= bound" rather than underreporting the tail.
    const auto quantile_cell = [](const HistFinal& h, double q) {
      const HistogramQuantileResult r =
          HistogramQuantileEx(h.bounds, h.buckets, q);
      return r.overflow ? ">= " + Compact(r.value) : Compact(r.value);
    };
    for (const auto& [name, h] : series.hists) {
      const double mean =
          h.count > 0 ? h.sum / static_cast<double>(h.count) : 0.0;
      t.AddRow({name, std::to_string(h.count), Compact(mean),
                quantile_cell(h, 0.50), quantile_cell(h, 0.90),
                quantile_cell(h, 0.99)});
    }
    t.Render(os);
    os << "\n";
  }

  // --- Memory ------------------------------------------------------------
  {
    TableWriter t({"pool / process", "bytes"}, md);
    for (const auto& [name, v] : series.gauges) {
      static const std::string kLive = ".live_bytes";
      if (name.rfind("obs.mem.", 0) == 0 && name.size() > kLive.size() &&
          name.compare(name.size() - kLive.size(), kLive.size(), kLive) ==
              0) {
        t.AddRow({name, Compact(v)});
      }
    }
    if (series.have_mem) {
      t.AddRow({"process RSS (kB)", Compact(series.rss_kb)});
      t.AddRow({"process peak RSS (kB)", Compact(series.peak_rss_kb)});
    }
    if (!t.empty()) {
      Heading(os, md, "Memory");
      t.Render(os);
      os << "\n";
    }
  }

  // --- Health verdicts ---------------------------------------------------
  {
    TableWriter t({"monitor", "verdict / value"}, md);
    for (const auto& [name, v] : series.gauges) {
      if (name.rfind("obs.health.", 0) == 0) {
        t.AddRow({name.substr(11), VerdictCell(v)});
      }
    }
    // Key estimator gauges the monitors publish alongside verdicts.
    for (const char* key :
         {"smc.ess", "mcdb.ci_halfwidth", "simsql.mc.ci_halfwidth",
          "simsql.mc.q50", "simsql.mc.q95", "dsgd.epoch_loss",
          "dsgd.residual"}) {
      auto it = series.gauges.find(key);
      if (it != series.gauges.end()) {
        t.AddRow({key, Compact(it->second)});
      }
    }
    if (!t.empty()) {
      Heading(os, md, "Statistical health (final)");
      t.Render(os);
      os << "\n";
    }
  }

  *out = os.str();
  return true;
}

bool RenderFlightReport(const std::string& flight_json,
                        const RunReportOptions& options, std::string* out,
                        std::string* error) {
  Json doc;
  std::string perr;
  if (!JsonParser(flight_json).Parse(&doc, &perr)) {
    if (error != nullptr) *error = "flight: " + perr;
    return false;
  }
  const Json* flight = doc.Get("flight");
  if (flight == nullptr || flight->type != Json::Type::kObject) {
    if (error != nullptr) *error = "flight: missing \"flight\" object";
    return false;
  }

  const bool md = options.markdown;
  std::ostringstream os;
  if (md) {
    os << "# mde flight recorder\n\n";
  } else {
    os << "=== mde flight recorder ===\n\n";
  }

  // --- Dump header -------------------------------------------------------
  Heading(os, md, "Dump");
  {
    TableWriter t({"what", "value"}, md);
    if (const Json* r = flight->Get("reason")) t.AddRow({"reason", r->str});
    if (const Json* v = flight->Get("version")) {
      t.AddRow({"version", Compact(v->NumOr(0.0))});
    }
    if (const Json* ts = flight->Get("ts_ns")) {
      t.AddRow({"ts_ns", Compact(ts->NumOr(0.0))});
    }
    if (t.empty()) t.AddRow({"(empty header)", ""});
    t.Render(os);
    os << "\n";
  }

  // --- Live query contexts ----------------------------------------------
  if (const Json* contexts = flight->Get("contexts");
      contexts != nullptr && !contexts->arr.empty()) {
    Heading(os, md, "Live query contexts");
    TableWriter t({"thread", "trace_id", "query", "tag"}, md);
    for (const Json& c : contexts->arr) {
      const auto cell = [&c](const char* key) {
        const Json* v = c.Get(key);
        if (v == nullptr) return std::string();
        return v->type == Json::Type::kString ? v->str : Compact(v->num);
      };
      t.AddRow({cell("thread"), cell("trace_id"), cell("fingerprint"),
                cell("tag")});
    }
    t.Render(os);
    os << "\n";
  }

  // --- Recent spans ------------------------------------------------------
  if (const Json* spans = flight->Get("spans");
      spans != nullptr && !spans->arr.empty()) {
    Heading(os, md, "Recent spans (newest first)");
    struct FlightSpan {
      std::string thread, name;
      double ts_ns = 0.0, trace_id = 0.0, span_id = 0.0, parent = 0.0;
    };
    std::vector<FlightSpan> rows;
    rows.reserve(spans->arr.size());
    for (const Json& sp : spans->arr) {
      FlightSpan fs;
      if (const Json* v = sp.Get("thread")) fs.thread = v->str;
      if (const Json* v = sp.Get("name")) fs.name = v->str;
      if (const Json* v = sp.Get("ts_ns")) fs.ts_ns = v->NumOr(0.0);
      if (const Json* v = sp.Get("trace_id")) fs.trace_id = v->NumOr(0.0);
      if (const Json* v = sp.Get("span_id")) fs.span_id = v->NumOr(0.0);
      if (const Json* v = sp.Get("parent_span_id")) fs.parent = v->NumOr(0.0);
      rows.push_back(std::move(fs));
    }
    std::stable_sort(rows.begin(), rows.end(),
                     [](const FlightSpan& a, const FlightSpan& b) {
                       return a.ts_ns > b.ts_ns;
                     });
    TableWriter t({"thread", "span", "ts_ns", "trace", "span id", "parent"},
                  md);
    const size_t limit = std::max<size_t>(options.top_spans, 1) * 4;
    for (size_t i = 0; i < rows.size() && i < limit; ++i) {
      const FlightSpan& fs = rows[i];
      t.AddRow({fs.thread, fs.name, Compact(fs.ts_ns), Compact(fs.trace_id),
                Compact(fs.span_id), Compact(fs.parent)});
    }
    t.Render(os);
    if (rows.size() > limit) {
      os << "(" << rows.size() - limit << " older spans)\n";
    }
    os << "\n";
  }

  // --- Counter/gauge snapshot (absent in signal-path dumps) --------------
  if (const Json* counters = flight->Get("counters");
      counters != nullptr && !counters->obj.empty()) {
    Heading(os, md, "Counters at dump");
    std::vector<std::pair<std::string, double>> rows;
    for (const auto& [name, v] : counters->obj) {
      rows.emplace_back(name, v.NumOr(0.0));
    }
    std::sort(rows.begin(), rows.end(), [](const auto& a, const auto& b) {
      if (a.second != b.second) return a.second > b.second;
      return a.first < b.first;
    });
    TableWriter t({"counter", "total"}, md);
    for (size_t i = 0; i < rows.size() && i < options.top_counters; ++i) {
      t.AddRow({rows[i].first, Compact(rows[i].second)});
    }
    t.Render(os);
    if (rows.size() > options.top_counters) {
      os << "(" << rows.size() - options.top_counters << " more counters)\n";
    }
    os << "\n";
  }
  if (const Json* gauges = flight->Get("gauges");
      gauges != nullptr && !gauges->obj.empty()) {
    Heading(os, md, "Gauges at dump");
    TableWriter t({"gauge", "value"}, md);
    for (const auto& [name, v] : gauges->obj) {
      t.AddRow({name, Compact(v.NumOr(0.0))});
    }
    t.Render(os);
    os << "\n";
  }

  *out = os.str();
  return true;
}

bool RenderProfileReport(const std::string& profile_text,
                         const std::string& metrics_jsonl,
                         const RunReportOptions& options, std::string* out,
                         std::string* error) {
  const bool md = options.markdown;

  // Parse the folded format: "# mde_profile hz=H samples=N window_s=S"
  // then one "frame;frame;...;frame count" line per distinct stack.
  int hz = 0;
  double window_s = 0.0;
  bool saw_header = false;
  struct Stack {
    std::vector<std::string> frames;  // root first
    uint64_t count = 0;
  };
  std::vector<Stack> stacks;
  size_t line_no = 0;
  size_t begin = 0;
  while (begin < profile_text.size()) {
    size_t end = profile_text.find('\n', begin);
    if (end == std::string::npos) end = profile_text.size();
    std::string line = profile_text.substr(begin, end - begin);
    begin = end + 1;
    ++line_no;
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.find_first_not_of(" \t") == std::string::npos) continue;
    if (line[0] == '#') {
      if (line.rfind("# mde_profile ", 0) == 0) {
        saw_header = true;
        std::istringstream kv(line.substr(14));
        std::string token;
        while (kv >> token) {
          if (token.rfind("hz=", 0) == 0) {
            hz = std::atoi(token.c_str() + 3);
          } else if (token.rfind("window_s=", 0) == 0) {
            window_s = std::atof(token.c_str() + 9);
          }
        }
      }
      continue;
    }
    const size_t sp = line.rfind(' ');
    if (sp == std::string::npos || sp + 1 >= line.size()) {
      if (error != nullptr) {
        *error = "profile line " + std::to_string(line_no) +
                 ": expected 'stack count'";
      }
      return false;
    }
    char* num_end = nullptr;
    const uint64_t count =
        std::strtoull(line.c_str() + sp + 1, &num_end, 10);
    if (num_end == nullptr || *num_end != '\0') {
      if (error != nullptr) {
        *error = "profile line " + std::to_string(line_no) +
                 ": trailing count is not a number";
      }
      return false;
    }
    Stack s;
    s.count = count;
    size_t fb = 0;
    const std::string stack_str = line.substr(0, sp);
    while (fb <= stack_str.size()) {
      size_t fe = stack_str.find(';', fb);
      if (fe == std::string::npos) fe = stack_str.size();
      if (fe > fb) s.frames.push_back(stack_str.substr(fb, fe - fb));
      fb = fe + 1;
    }
    if (!s.frames.empty()) stacks.push_back(std::move(s));
  }
  if (!saw_header && stacks.empty()) {
    if (error != nullptr) *error = "not a folded profile (no header, no stacks)";
    return false;
  }

  uint64_t total = 0;
  for (const Stack& s : stacks) total += s.count;

  // Leaf-frame (self) and anywhere-on-stack (inclusive) sample counts per
  // function; the synthetic "query:..." roots stay out of this table.
  struct FuncAgg {
    uint64_t self = 0;
    uint64_t incl = 0;
  };
  std::map<std::string, FuncAgg> funcs;
  std::map<std::string, uint64_t> query_counts;
  for (const Stack& s : stacks) {
    size_t first = 0;
    if (s.frames[0].rfind("query:", 0) == 0) {
      query_counts[s.frames[0].substr(6)] += s.count;
      first = 1;
    }
    if (first >= s.frames.size()) continue;
    std::set<std::string> seen;
    for (size_t f = first; f < s.frames.size(); ++f) {
      if (seen.insert(s.frames[f]).second) funcs[s.frames[f]].incl += s.count;
    }
    funcs[s.frames.back()].self += s.count;
  }

  std::ostringstream os;
  Heading(os, md, "CPU profile");
  {
    TableWriter t({"what", "value"}, md);
    t.AddRow({"samples", std::to_string(total)});
    if (hz > 0) t.AddRow({"rate (hz)", std::to_string(hz)});
    if (window_s > 0.0) t.AddRow({"window (s)", Fixed(window_s)});
    if (hz > 0) {
      t.AddRow({"sampled cpu (s)",
                Fixed(static_cast<double>(total) / static_cast<double>(hz))});
    }
    t.Render(os);
    os << "\n";
  }

  if (!funcs.empty()) {
    Heading(os, md, "Top functions (self samples)");
    std::vector<std::pair<std::string, FuncAgg>> rows(funcs.begin(),
                                                      funcs.end());
    std::sort(rows.begin(), rows.end(), [](const auto& a, const auto& b) {
      if (a.second.self != b.second.self) return a.second.self > b.second.self;
      return a.first < b.first;
    });
    TableWriter t({"function", "self", "self %", "incl"}, md);
    for (size_t i = 0; i < rows.size() && i < options.top_spans; ++i) {
      const double pct =
          total > 0
              ? 100.0 * static_cast<double>(rows[i].second.self) / total
              : 0.0;
      t.AddRow({rows[i].first, std::to_string(rows[i].second.self),
                Fixed(pct, 1), std::to_string(rows[i].second.incl)});
    }
    t.Render(os);
    if (rows.size() > options.top_spans) {
      os << "(" << rows.size() - options.top_spans << " more functions)\n";
    }
    os << "\n";
  }

  if (!query_counts.empty()) {
    // Reconciliation column: the attribution table's own cpu-ns totals from
    // the Sampler JSONL, when provided. Sample-estimated cpu vs attributed
    // cpu should agree within sampling error (the 10% acceptance gate).
    MetricsSeries series;
    if (!metrics_jsonl.empty() &&
        !ParseMetricsJsonl(metrics_jsonl, &series, error)) {
      return false;
    }
    Heading(os, md, "Per-query samples");
    std::vector<std::pair<std::string, uint64_t>> rows(query_counts.begin(),
                                                       query_counts.end());
    std::sort(rows.begin(), rows.end(), [](const auto& a, const auto& b) {
      if (a.second != b.second) return a.second > b.second;
      return a.first < b.first;
    });
    const bool have_attr = !series.queries.empty();
    std::vector<std::string> headers = {"query", "samples", "est cpu s"};
    if (have_attr) {
      headers.push_back("attr cpu s");
      headers.push_back("est/attr");
    }
    TableWriter t(std::move(headers), md);
    for (const auto& [query, count] : rows) {
      std::vector<std::string> row;
      row.push_back(query == "-" ? "(no query)" : query);
      row.push_back(std::to_string(count));
      const double est_s =
          hz > 0 ? static_cast<double>(count) / static_cast<double>(hz)
                 : 0.0;
      row.push_back(hz > 0 ? Fixed(est_s) : "?");
      if (have_attr) {
        auto it = series.queries.find(query);
        if (it != series.queries.end() && it->second.cpu_ns > 0.0) {
          const double attr_s = it->second.cpu_ns * 1e-9;
          row.push_back(Fixed(attr_s));
          row.push_back(hz > 0 ? Fixed(est_s / attr_s, 2) : "?");
        } else {
          row.push_back("-");
          row.push_back("-");
        }
      }
      t.AddRow(std::move(row));
    }
    t.Render(os);
    os << "\n";
  }

  *out = os.str();
  return true;
}

}  // namespace mde::obs
