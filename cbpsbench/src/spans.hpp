// In-memory span recorder for the traced run.
//
// Spans are recorded by the benchmark around its own calls into the
// library (set-up, each subscribe/publish, the notify sink, and each
// engine drain); nothing inside the library is instrumented. A null
// recorder means tracing is off and a SpanScope costs one branch.
#pragma once

#include <chrono>
#include <cstdint>
#include <ostream>
#include <vector>

namespace cbpsbench {

enum class SpanName : std::uint8_t { kSetup, kSubscribe, kPublish, kNotify, kDrain };
constexpr std::size_t kSpanNames = 5;

inline const char* to_string(SpanName n) {
  switch (n) {
    case SpanName::kSetup: return "setup";
    case SpanName::kSubscribe: return "subscribe";
    case SpanName::kPublish: return "publish";
    case SpanName::kNotify: return "notify_sink";
    case SpanName::kDrain: return "drain";
  }
  return "?";
}

class SpanRecorder {
 public:
  static constexpr std::uint32_t kNoParent = ~std::uint32_t{0};

  struct Span {
    SpanName name;
    std::uint32_t parent;  // index into spans(), or kNoParent
    std::int64_t start_ns;
    std::int64_t end_ns;
  };

  std::uint32_t begin(SpanName name) {
    const auto idx = static_cast<std::uint32_t>(spans_.size());
    spans_.push_back(
        Span{name, open_.empty() ? kNoParent : open_.back(), now_ns(), 0});
    open_.push_back(idx);
    return idx;
  }

  void end() {
    spans_[open_.back()].end_ns = now_ns();
    open_.pop_back();
  }

  const std::vector<Span>& spans() const { return spans_; }

  /// Per name: summed duration and summed self time (duration minus the
  /// part covered by direct children), in seconds.
  struct Totals {
    double total_s[kSpanNames] = {};
    double self_s[kSpanNames] = {};
  };
  Totals totals() const {
    Totals t;
    for (const Span& s : spans_) {
      const double d = static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
      t.total_s[static_cast<std::size_t>(s.name)] += d;
      t.self_s[static_cast<std::size_t>(s.name)] += d;
      if (s.parent != kNoParent) {
        t.self_s[static_cast<std::size_t>(spans_[s.parent].name)] -= d;
      }
    }
    return t;
  }

  /// One JSON object per line: id, name, start/end (ns since the first
  /// span), parent id (-1 for roots).
  void write_jsonl(std::ostream& os) const {
    const std::int64_t base = spans_.empty() ? 0 : spans_.front().start_ns;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      os << "{\"id\": " << i << ", \"name\": \"" << to_string(s.name)
         << "\", \"start_ns\": " << s.start_ns - base
         << ", \"end_ns\": " << s.end_ns - base << ", \"parent\": "
         << (s.parent == kNoParent ? std::int64_t{-1}
                                   : static_cast<std::int64_t>(s.parent))
         << "}\n";
    }
  }

 private:
  static std::int64_t now_ns() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }

  std::vector<Span> spans_;
  std::vector<std::uint32_t> open_;
};

/// RAII span; no-op when the recorder is null.
class SpanScope {
 public:
  SpanScope(SpanRecorder* rec, SpanName name) : rec_(rec) {
    if (rec_ != nullptr) rec_->begin(name);
  }
  ~SpanScope() {
    if (rec_ != nullptr) rec_->end();
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  SpanRecorder* rec_;
};

}  // namespace cbpsbench
