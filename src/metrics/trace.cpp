#include "cbps/metrics/trace.hpp"

#include <algorithm>
#include <ostream>
#include <unordered_map>

#include "cbps/common/assert.hpp"
#include "cbps/common/exec_context.hpp"

namespace cbps::metrics {

const char* to_string(SpanKind kind) {
  switch (kind) {
    case SpanKind::kPublish: return "publish";
    case SpanKind::kSubscribe: return "subscribe";
    case SpanKind::kMap: return "map";
    case SpanKind::kRouteHop: return "route-hop";
    case SpanKind::kMcastSplit: return "mcast-split";
    case SpanKind::kBuffer: return "buffer";
    case SpanKind::kCollect: return "collect";
    case SpanKind::kNotify: return "notify";
    case SpanKind::kDeliver: return "deliver";
    case SpanKind::kRetry: return "retry";
    case SpanKind::kDrop: return "drop";
    case SpanKind::kHotKey: return "hot-key";
    case SpanKind::kCount: break;
  }
  return "?";
}

TraceSink::TraceSink(double sample_rate)
    : sample_rate_(sample_rate < 0.0   ? 0.0
                   : sample_rate > 1.0 ? 1.0
                                       : sample_rate),
      stripes_(kMaxStripes) {}

std::uint64_t TraceSink::maybe_start_trace() {
  CBPS_ASSERT_MSG(common::exec_context().stripe == 0,
                  "trace roots start from global context only");
  if (sample_rate_ <= 0.0) return 0;
  credit_ += sample_rate_;
  if (credit_ < 1.0) return 0;
  credit_ -= 1.0;
  return next_trace_++;
}

std::uint64_t TraceSink::emit(const TraceRef& t, SpanKind kind,
                              std::uint64_t node, std::uint64_t start_us,
                              std::uint64_t end_us, std::uint64_t a,
                              std::uint64_t b) {
  if (!t.sampled()) return 0;
  CBPS_ASSERT_MSG(!finalized_, "emit() after spans were finalized");
  auto& x = common::exec_context();
  CBPS_ASSERT(x.stripe < kMaxStripes);
  Stripe& s = stripes_[x.stripe];
  if (s.recs.size() >= max_spans_) {
    ++s.dropped;
    return 0;
  }
  // Provisional id: stripe-tagged so ids never collide across workers.
  // finalize() renumbers them 1..n in canonical order.
  const std::uint64_t id = ((static_cast<std::uint64_t>(x.stripe) + 1) << 48) |
                           s.next_local++;
  s.recs.push_back(Rec{Span{id, t.trace_id, t.parent_span, kind, node,
                            start_us, end_us, a, b},
                       x.time, x.event_key, x.emit_seq++});
  return id;
}

std::uint64_t TraceSink::spans_dropped() const {
  std::uint64_t n = 0;
  for (const Stripe& s : stripes_) n += s.dropped;
  return n;
}

void TraceSink::finalize() {
  if (finalized_) return;
  finalized_ = true;

  std::size_t total = 0;
  for (const Stripe& s : stripes_) total += s.recs.size();

  std::vector<Rec> all;
  all.reserve(total);
  for (Stripe& s : stripes_) {
    std::move(s.recs.begin(), s.recs.end(), std::back_inserter(all));
    s.recs.clear();
    s.recs.shrink_to_fit();
  }

  // Canonical order: (sim time, event key, emission index). Within one
  // stripe the triple is strictly increasing per event, and event keys
  // are unique across stripes, so the order — and therefore the
  // renumbering — is a pure function of the workload, not of the engine
  // or shard count. stable_sort keeps append order on the (test-only)
  // case of emits outside any event callback.
  std::stable_sort(all.begin(), all.end(), [](const Rec& l, const Rec& r) {
    if (l.time != r.time) return l.time < r.time;
    if (l.event_key != r.event_key) return l.event_key < r.event_key;
    return l.emit_seq < r.emit_seq;
  });

  std::unordered_map<std::uint64_t, std::uint64_t> remap;
  remap.reserve(all.size());
  for (std::size_t i = 0; i < all.size(); ++i) {
    remap.emplace(all[i].span.span_id, i + 1);
  }

  final_.reserve(all.size());
  for (std::size_t i = 0; i < all.size(); ++i) {
    Span s = all[i].span;
    s.span_id = i + 1;
    if (s.parent_span != 0) {
      // A missing parent was dropped by the span cap; orphan to root.
      const auto it = remap.find(s.parent_span);
      s.parent_span = it != remap.end() ? it->second : 0;
    }
    final_.push_back(s);
  }
}

void TraceSink::write_jsonl(std::ostream& os) {
  for (const Span& s : spans()) {
    os << "{\"span\":" << s.span_id << ",\"trace\":" << s.trace_id
       << ",\"parent\":" << s.parent_span << ",\"kind\":\""
       << to_string(s.kind) << "\",\"node\":" << s.node
       << ",\"ts_us\":" << s.start_us << ",\"end_us\":" << s.end_us
       << ",\"a\":" << s.a << ",\"b\":" << s.b << "}\n";
  }
}

void TraceSink::write_chrome_trace(std::ostream& os) {
  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  for (const Span& s : spans()) {
    if (!first) os << ",";
    first = false;
    // Complete ("X") events; zero-duration instants get dur=1 so they
    // stay visible in the Perfetto timeline. pid 1 = the simulation,
    // tid = node id, so each Perfetto track is one node's activity.
    const std::uint64_t dur = s.end_us > s.start_us ? s.end_us - s.start_us : 1;
    os << "\n{\"name\":\"" << to_string(s.kind)
       << "\",\"cat\":\"cbps\",\"ph\":\"X\",\"ts\":" << s.start_us
       << ",\"dur\":" << dur << ",\"pid\":1,\"tid\":" << s.node
       << ",\"args\":{\"span\":" << s.span_id << ",\"trace\":" << s.trace_id
       << ",\"parent\":" << s.parent_span << ",\"a\":" << s.a
       << ",\"b\":" << s.b << "}}";
  }
  os << "\n]}\n";
}

}  // namespace cbps::metrics
