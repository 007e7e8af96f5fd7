// Tests for the observability layer (src/obs): counter sharding under
// threads, histogram bucket boundaries and percentiles, registry snapshot
// aggregation, trace JSON well-formedness (parsed back by a minimal JSON
// parser), and the disabled-mode zero-allocation guarantee.
#include <gtest/gtest.h>

#include <atomic>
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <new>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/timing.hpp"
#include "obs/obs.hpp"
#include "runtime/system.hpp"

namespace pimds::obs {
namespace {

// ---------------------------------------------------------------------------
// Minimal recursive-descent JSON validator: enough to check the emitted
// metrics/trace JSON is well-formed without a third-party parser.
class JsonCursor {
 public:
  explicit JsonCursor(const std::string& text) : s_(text) {}

  bool parse() {
    skip_ws();
    if (!value()) return false;
    skip_ws();
    return pos_ == s_.size();
  }

  std::size_t objects_seen() const { return objects_; }

 private:
  bool value() {
    if (pos_ >= s_.size()) return false;
    switch (s_[pos_]) {
      case '{':
        return object();
      case '[':
        return array();
      case '"':
        return string();
      case 't':
        return literal("true");
      case 'f':
        return literal("false");
      case 'n':
        return literal("null");
      default:
        return number();
    }
  }

  bool object() {
    ++objects_;
    ++pos_;  // '{'
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return true;
    }
    for (;;) {
      skip_ws();
      if (!string()) return false;
      skip_ws();
      if (peek() != ':') return false;
      ++pos_;
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      if (peek() == '}') {
        ++pos_;
        return true;
      }
      return false;
    }
  }

  bool array() {
    ++pos_;  // '['
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return true;
    }
    for (;;) {
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      if (peek() == ']') {
        ++pos_;
        return true;
      }
      return false;
    }
  }

  bool string() {
    if (peek() != '"') return false;
    ++pos_;
    while (pos_ < s_.size() && s_[pos_] != '"') {
      if (s_[pos_] == '\\') ++pos_;
      ++pos_;
    }
    if (pos_ >= s_.size()) return false;
    ++pos_;  // closing quote
    return true;
  }

  bool number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) ||
            s_[pos_] == '.' || s_[pos_] == 'e' || s_[pos_] == 'E' ||
            s_[pos_] == '+' || s_[pos_] == '-')) {
      ++pos_;
    }
    return pos_ > start;
  }

  bool literal(const char* word) {
    for (const char* p = word; *p != '\0'; ++p, ++pos_) {
      if (pos_ >= s_.size() || s_[pos_] != *p) return false;
    }
    return true;
  }

  char peek() const { return pos_ < s_.size() ? s_[pos_] : '\0'; }
  void skip_ws() {
    while (pos_ < s_.size() &&
           std::isspace(static_cast<unsigned char>(s_[pos_]))) {
      ++pos_;
    }
  }

  const std::string& s_;
  std::size_t pos_ = 0;
  std::size_t objects_ = 0;
};

bool json_well_formed(const std::string& text, std::size_t* objects = nullptr) {
  JsonCursor c(text);
  const bool ok = c.parse();
  if (objects != nullptr) *objects = c.objects_seen();
  return ok;
}

// ---------------------------------------------------------------------------
// Allocation tracking for the zero-allocation check. Counts every
// operator-new in the process; the disabled-path assertions diff it.
std::atomic<std::uint64_t> g_news{0};

}  // namespace
}  // namespace pimds::obs

// noinline: keeps GCC from inlining the malloc/free bodies into callers and
// then warning that free() pairs with the replaced operator new.
[[gnu::noinline]] void* operator new(std::size_t n) {
  pimds::obs::g_news.fetch_add(1, std::memory_order_relaxed);
  void* p = std::malloc(n);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}

namespace pimds::obs {
namespace {

TEST(Counter, ShardedAddsSumExactlyUnderThreads) {
  Counter c;
  constexpr int kThreads = 8;
  constexpr std::uint64_t kPerThread = 100'000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) c.add(1);
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(c.value(), kThreads * kPerThread);
  c.reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST(Gauge, RecordMaxKeepsTheHighWaterMark) {
  Gauge g;
  g.record_max(5);
  g.record_max(3);
  EXPECT_EQ(g.value(), 5u);
  g.record_max(9);
  EXPECT_EQ(g.value(), 9u);
  g.set(2);
  EXPECT_EQ(g.value(), 2u);
}

TEST(Gauge, RecordMaxUnderThreadsIsTheGlobalMax) {
  Gauge g;
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&g, t] {
      for (std::uint64_t i = 0; i < 10'000; ++i) {
        g.record_max(static_cast<std::uint64_t>(t) * 10'000 + i);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(g.value(), 7u * 10'000 + 9'999);
}

TEST(Histogram, BucketBoundariesAreContiguousAndOrdered) {
  // Every reachable bucket's exclusive upper bound must equal the next
  // bucket's inclusive lower bound, with no gaps or overlaps. Buckets past
  // bucket_index(2^64 - 1) can never be hit and have no defined bounds.
  const unsigned top = Histogram::bucket_index(~std::uint64_t{0});
  ASSERT_LT(top, Histogram::kBuckets);
  for (unsigned b = 0; b < top; ++b) {
    EXPECT_EQ(Histogram::bucket_upper(b), Histogram::bucket_lower(b + 1))
        << "gap/overlap at bucket " << b;
    EXPECT_LT(Histogram::bucket_lower(b), Histogram::bucket_upper(b));
  }
  // The top bucket's upper bound saturates at the max representable value.
  EXPECT_LT(Histogram::bucket_lower(top), Histogram::bucket_upper(top));
  EXPECT_EQ(Histogram::bucket_upper(top), ~std::uint64_t{0});
}

TEST(Histogram, BucketIndexRoundTripsItsOwnBounds) {
  for (unsigned b = 0; b < 200; ++b) {
    const std::uint64_t lo = Histogram::bucket_lower(b);
    EXPECT_EQ(Histogram::bucket_index(lo), b);
    EXPECT_EQ(Histogram::bucket_index(Histogram::bucket_upper(b) - 1), b);
  }
  // Known small values get exact unit buckets.
  EXPECT_EQ(Histogram::bucket_index(0), 0u);
  EXPECT_EQ(Histogram::bucket_index(1), 1u);
  EXPECT_EQ(Histogram::bucket_index(3), 3u);
  EXPECT_EQ(Histogram::bucket_index(~std::uint64_t{0}),
            Histogram::bucket_index(~std::uint64_t{0}));
  EXPECT_LT(Histogram::bucket_index(~std::uint64_t{0}), Histogram::kBuckets);
}

TEST(Histogram, RelativeBucketWidthIsBounded) {
  // HDR property with 2 mantissa bits: width / lower <= 1/4 for v >= 4.
  for (unsigned b = Histogram::kSub; b < 200; ++b) {
    const double lo = static_cast<double>(Histogram::bucket_lower(b));
    const double up = static_cast<double>(Histogram::bucket_upper(b));
    EXPECT_LE((up - lo) / lo, 0.25 + 1e-12) << "bucket " << b;
  }
}

TEST(Histogram, PercentilesOfKnownDistribution) {
  Histogram h;
  for (std::uint64_t v = 1; v <= 1000; ++v) h.record(v);
  const HistogramData d = h.data();
  EXPECT_EQ(d.count, 1000u);
  EXPECT_EQ(d.max, 1000u);
  EXPECT_NEAR(d.mean(), 500.5, 1e-9);
  // Log-bucketed: percentile error is bounded by the 25% bucket width.
  EXPECT_NEAR(d.percentile(0.50), 500.0, 125.0);
  EXPECT_NEAR(d.percentile(0.99), 990.0, 250.0);
  EXPECT_GE(d.percentile(0.999), d.percentile(0.5));
}

TEST(Histogram, EmptyHistogramDerivesAllZero) {
  const HistogramData d = Histogram{}.data();
  EXPECT_EQ(d.count, 0u);
  EXPECT_EQ(d.sum, 0u);
  EXPECT_EQ(d.max, 0u);
  EXPECT_DOUBLE_EQ(d.mean(), 0.0);
  EXPECT_DOUBLE_EQ(d.percentile(0.5), 0.0);
  EXPECT_DOUBLE_EQ(d.percentile(0.999), 0.0);
}

TEST(Histogram, SingleBucketEveryPercentileLandsInIt) {
  Histogram h;
  for (int i = 0; i < 1000; ++i) h.record(100);
  const HistogramData d = h.data();
  const unsigned idx = Histogram::bucket_index(100);
  const double lo = static_cast<double>(Histogram::bucket_lower(idx));
  const double up = static_cast<double>(Histogram::bucket_upper(idx));
  for (double q : {0.0, 0.5, 0.9, 0.99, 0.999, 1.0}) {
    const double p = d.percentile(q);
    EXPECT_GE(p, lo) << "q=" << q;
    EXPECT_LE(p, up) << "q=" << q;
  }
  EXPECT_EQ(d.max, 100u);
  EXPECT_DOUBLE_EQ(d.mean(), 100.0);
}

TEST(Histogram, P999OnTinySampleCountsUsesFloorRank) {
  // Nearest-rank with a floored 0-based rank: with 2 samples the 0.999
  // rank floors to 0, so p999 answers from the LOWER sample's bucket —
  // only q = 1.0 is guaranteed to reach the maximum. Tiny-sample tails
  // are a property of the data, not the histogram, and the convention
  // must stay put or committed baselines shift.
  Histogram h;
  h.record(10);
  h.record(1'000'000);
  const HistogramData d = h.data();
  EXPECT_LE(d.percentile(0.999), 16.0);
  const unsigned top = Histogram::bucket_index(1'000'000);
  EXPECT_GE(d.percentile(1.0),
            static_cast<double>(Histogram::bucket_lower(top)));
  EXPECT_LE(d.percentile(0.50), 16.0);
  EXPECT_EQ(d.max, 1'000'000u);
}

TEST(Histogram, MergedDataFromDisjointRangesAddsUp) {
  Histogram low, high;
  for (std::uint64_t v = 0; v < 100; ++v) low.record(v);
  for (std::uint64_t v = 1'000'000; v < 1'000'100; ++v) high.record(v);
  HistogramData merged;
  low.collect(merged);
  high.collect(merged);
  EXPECT_EQ(merged.count, 200u);
  EXPECT_EQ(merged.max, 1'000'099u);
  EXPECT_LE(merged.percentile(0.25), 128.0);
  EXPECT_GE(merged.percentile(0.75), 900'000.0);
}

TEST(PhaseAttribution, PhasePercentilesComeFromTheirOwnHistograms) {
  // A cpu_receive whose mean (802 ns) is carried by two long stalls: the
  // median sits with the 98 fast wakes, the p99 with the stalls.
  Histogram total;
  Histogram receive;
  for (int i = 0; i < 98; ++i) {
    total.record(1'000);
    receive.record(2);
  }
  for (int i = 0; i < 2; ++i) {
    total.record(50'000);
    receive.record(40'000);
  }
  MetricsSnapshot snap;
  snap.histograms.push_back({"runtime.phase.total", total.data()});
  snap.histograms.push_back({"runtime.phase.cpu_receive", receive.data()});
  const AttributionReport report = attribution_report(snap);
  const auto rx = static_cast<std::size_t>(Phase::kCpuReceive);
  const double p50 = report.runtime.phase_p50_ns[rx];
  const double p99 = report.runtime.phase_p99_ns[rx];
  EXPECT_GE(p50, 2.0);
  EXPECT_LT(p50, 3.0);  // inside the unit bucket of the fast wakes
  // Inside the stalls' bucket, clamped to the recorded max.
  EXPECT_GE(p99, static_cast<double>(
                     Histogram::bucket_lower(Histogram::bucket_index(40'000))));
  EXPECT_LE(p99, 40'000.0);
  const std::string json = attribution_json(report);
  EXPECT_TRUE(JsonCursor(json).parse()) << json;
  char want[96];
  std::snprintf(want, sizeof(want), "\"p50_ns\": %.6g, \"p99_ns\": %.6g}",
                p50, p99);
  EXPECT_NE(json.find(std::string("\"cpu_receive\": {\"count\": 100")),
            std::string::npos)
      << json;
  EXPECT_NE(json.find(want), std::string::npos) << json;
}

TEST(Message, TraceContextCompilesOutWhenObsDisabled) {
#ifdef PIMDS_OBS_DISABLED
  // The req_id fields (message header + per-op fat entries) must vanish
  // entirely: header 40 bytes + fat bookkeeping 8 + two inline 32-byte
  // entries.
  static_assert(sizeof(runtime::FatEntry) == 32,
                "FatEntry grew in the -DPIMDS_OBS=OFF configuration");
  static_assert(sizeof(runtime::Message) == 112,
                "Message grew in the -DPIMDS_OBS=OFF configuration");
  SUCCEED();
#else
  // With observability on, each fat entry carries a per-op req_id (40
  // bytes), so the message is header 48 + fat bookkeeping 8 + two inline
  // entries = 136 — within the three-line SBO budget, with the non-fat
  // header still inside the first line (asserted in message.hpp).
  EXPECT_EQ(sizeof(runtime::FatEntry), 40u);
  EXPECT_LE(sizeof(runtime::Message), 3 * kCacheLineSize);
  EXPECT_EQ(sizeof(runtime::Message), 136u);
#endif
}

TEST(Histogram, ConcurrentRecordsAllCounted) {
  Histogram h;
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&h] {
      for (std::uint64_t i = 0; i < 50'000; ++i) h.record(i & 1023);
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(h.count(), 8u * 50'000);
}

TEST(Registry, FindOrCreateReturnsStableReferences) {
  auto& r = Registry::instance();
  Counter& a = r.counter("test_obs.stable");
  Counter& b = r.counter("test_obs.stable");
  EXPECT_EQ(&a, &b);
  a.add(3);
  EXPECT_EQ(b.value(), 3u);
}

TEST(Registry, SnapshotAggregatesExternalAndOwnedByName) {
  auto& r = Registry::instance();
  r.counter("test_obs.agg").add(2);
  Counter external;
  external.add(5);
  {
    Registry::Handle h = r.register_counter("test_obs.agg", &external);
    const MetricsSnapshot snap = r.snapshot();
    const auto* s = snap.find_counter("test_obs.agg");
    ASSERT_NE(s, nullptr);
    EXPECT_EQ(s->value, 7u);  // owned 2 + external 5
  }
  // Handle destruction unregisters: only the owned counter remains.
  const MetricsSnapshot snap = r.snapshot();
  const auto* s = snap.find_counter("test_obs.agg");
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->value, 2u);
}

TEST(Registry, SnapshotJsonIsWellFormed) {
  auto& r = Registry::instance();
  r.counter("test_obs.json_counter").add(1);
  r.gauge("test_obs.json_gauge").record_max(42);
  r.histogram("test_obs.json_hist").record(100);
  r.set_derived("test_obs.json_ratio", 1.5);
  const std::string json = r.to_json();
  std::size_t objects = 0;
  EXPECT_TRUE(json_well_formed(json, &objects)) << json;
  EXPECT_GE(objects, 4u);  // top-level + counters + gauges + histograms
  EXPECT_NE(json.find("test_obs.json_counter"), std::string::npos);
  EXPECT_NE(json.find("test_obs.json_ratio"), std::string::npos);
  EXPECT_NE(json.find("\"p999\""), std::string::npos);
}

TEST(Trace, ChromeTraceJsonParsesBackAndContainsEvents) {
  clear_trace();
  set_trace_enabled(true);
  set_process_name(kNativePid, "native");
  set_process_name(kSimPid, "sim-virtual-time");
  name_this_thread("test-main");
  trace_instant_here("test_instant", "test", {"k", 7});
  const std::uint64_t t0 = now_ns();
  trace_complete_here("test_span", "test", t0, {"n", 3}, {"m", 4});
  // Simulated-track events with explicit virtual timestamps.
  trace_instant(kSimPid, 2, "newEnqSeg", "sim", 1000, {"vault", 2});
  trace_complete(kSimPid, 2, "drain_batch", "sim", 2000, 500, {"n", 8});
  EXPECT_GE(trace_event_count(), 4u);

  const std::string path = ::testing::TempDir() + "test_obs_trace.json";
  ASSERT_TRUE(write_chrome_trace(path));
  set_trace_enabled(false);

  std::ifstream in(path);
  std::stringstream buf;
  buf << in.rdbuf();
  const std::string text = buf.str();
  EXPECT_TRUE(json_well_formed(text)) << text.substr(0, 500);
  EXPECT_NE(text.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(text.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(text.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(text.find("\"ph\":\"M\""), std::string::npos);
  EXPECT_NE(text.find("newEnqSeg"), std::string::npos);
  EXPECT_NE(text.find("drain_batch"), std::string::npos);
  EXPECT_NE(text.find("\"vault\":2"), std::string::npos);
  clear_trace();
}

TEST(Trace, RingBufferKeepsOnlyTheMostRecentWindow) {
  clear_trace();
  set_trace_enabled(true);
  const std::size_t before = trace_event_count();
  for (int i = 0; i < 100; ++i) {
    trace_instant_here("spam", "test", {"i", static_cast<std::uint64_t>(i)});
  }
  set_trace_enabled(false);
  const std::size_t after = trace_event_count();
  EXPECT_GE(after - before, 0u);
  EXPECT_LE(after, 16384u * 4);  // bounded by per-thread capacity
  clear_trace();
  EXPECT_EQ(trace_event_count(), 0u);
}

TEST(DisabledMode, UpdatesAreDroppedAndAllocationFree) {
  auto& r = Registry::instance();
  Counter& c = r.counter("test_obs.disabled_counter");
  Histogram& h = r.histogram("test_obs.disabled_hist");
  Gauge& g = r.gauge("test_obs.disabled_gauge");
  c.reset();
  set_metrics_enabled(false);
  set_trace_enabled(false);
  const std::uint64_t news_before = g_news.load(std::memory_order_relaxed);
  for (int i = 0; i < 10'000; ++i) {
    c.add(1);
    h.record(static_cast<std::uint64_t>(i));
    g.record_max(static_cast<std::uint64_t>(i));
    trace_instant_here("nope", "test");
    trace_complete_here("nope", "test", 0);
  }
  const std::uint64_t news_after = g_news.load(std::memory_order_relaxed);
  set_metrics_enabled(true);
  EXPECT_EQ(news_after, news_before)
      << "disabled-mode metric/trace calls must not allocate";
  EXPECT_EQ(c.value(), 0u);
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(g.value(), 0u);
}

TEST(Gauge, AddSubTrackALevel) {
  Gauge g;
  g.add(5);
  g.add(3);
  EXPECT_EQ(g.value(), 8u);
  g.sub(2);
  EXPECT_EQ(g.value(), 6u);
  g.set(0);
  g.add();  // default increment of 1
  EXPECT_EQ(g.value(), 1u);
}

TEST(Gauge, MergeSemanticsSelectHowSnapshotsCombine) {
  auto& r = Registry::instance();
  // kMax (default): the snapshot keeps the high-water mark across sources.
  Gauge ext_max;
  ext_max.set(10);
  r.gauge("test_obs.gmax", GaugeMerge::kMax).set(4);
  {
    Registry::Handle h = r.register_gauge("test_obs.gmax", &ext_max);
    const MetricsSnapshot snap = r.snapshot();
    const auto* s = snap.find_gauge("test_obs.gmax");
    ASSERT_NE(s, nullptr);
    EXPECT_EQ(s->value, 10u);
  }
  // kSum: levels add up (e.g. per-shard queue depths -> total depth).
  Gauge ext_sum;
  ext_sum.set(10);
  r.gauge("test_obs.gsum", GaugeMerge::kSum).set(4);
  {
    Registry::Handle h = r.register_gauge("test_obs.gsum", &ext_sum,
                                          GaugeMerge::kSum);
    const MetricsSnapshot snap = r.snapshot();
    const auto* s = snap.find_gauge("test_obs.gsum");
    ASSERT_NE(s, nullptr);
    EXPECT_EQ(s->value, 14u);
  }
  // kLast: the most recently registered source wins (config-style gauges).
  Gauge ext_last;
  ext_last.set(10);
  r.gauge("test_obs.glast", GaugeMerge::kLast).set(4);
  {
    Registry::Handle h = r.register_gauge("test_obs.glast", &ext_last,
                                          GaugeMerge::kLast);
    const MetricsSnapshot snap = r.snapshot();
    const auto* s = snap.find_gauge("test_obs.glast");
    ASSERT_NE(s, nullptr);
    EXPECT_EQ(s->value, 10u);
  }
  // The first registration of a name fixes the mode: re-requesting with a
  // different mode reuses the existing slot (documented, not an error).
  Gauge& again = r.gauge("test_obs.gsum", GaugeMerge::kMax);
  EXPECT_EQ(&again, &r.gauge("test_obs.gsum"));
  EXPECT_STREQ(gauge_merge_name(GaugeMerge::kMax), "max");
  EXPECT_STREQ(gauge_merge_name(GaugeMerge::kSum), "sum");
  EXPECT_STREQ(gauge_merge_name(GaugeMerge::kLast), "last");
}

TEST(Registry, DeltaSnapshotYieldsPerWindowCounterDeltas) {
  auto& r = Registry::instance();
  Counter& c = r.counter("test_obs.delta_counter");
  Histogram& h = r.histogram("test_obs.delta_hist");
  DeltaBaseline baseline;
  (void)r.delta_snapshot(baseline);  // prime: absorbs all history
  EXPECT_EQ(baseline.windows, 1u);

  c.add(7);
  h.record(100);
  h.record(200);
  MetricsSnapshot w1 = r.delta_snapshot(baseline);
  const auto* dc = w1.find_counter("test_obs.delta_counter");
  ASSERT_NE(dc, nullptr);
  EXPECT_EQ(dc->value, 7u);
  const auto* dh = w1.find_histogram("test_obs.delta_hist");
  ASSERT_NE(dh, nullptr);
  EXPECT_EQ(dh->data.count, 2u);
  // Window max is approximated from the highest nonzero diff bucket: it
  // must cover the true max by no more than the 25% bucket width.
  EXPECT_GE(dh->data.max, 200u);
  EXPECT_LE(dh->data.max, 250u);

  // An idle window reports zero deltas, not cumulative totals.
  MetricsSnapshot w2 = r.delta_snapshot(baseline);
  dc = w2.find_counter("test_obs.delta_counter");
  ASSERT_NE(dc, nullptr);
  EXPECT_EQ(dc->value, 0u);
  dh = w2.find_histogram("test_obs.delta_hist");
  ASSERT_NE(dh, nullptr);
  EXPECT_EQ(dh->data.count, 0u);
  EXPECT_EQ(dh->data.max, 0u);
  EXPECT_EQ(baseline.windows, 3u);
}

TEST(Registry, DeltaSnapshotSurvivesResetWithoutUnderflow) {
  auto& r = Registry::instance();
  Counter& c = r.counter("test_obs.delta_reset");
  c.add(100);
  DeltaBaseline baseline;
  (void)r.delta_snapshot(baseline);
  c.reset();
  c.add(3);
  // now(3) < was(100): the clamped delta reports the post-reset count
  // instead of wrapping to ~2^64.
  const MetricsSnapshot w = r.delta_snapshot(baseline);
  const auto* dc = w.find_counter("test_obs.delta_reset");
  ASSERT_NE(dc, nullptr);
  EXPECT_EQ(dc->value, 3u);
}

TEST(Registry, ConcurrentSnapshotsVsExternalRegistration) {
  // The ISSUE-8 locking fix: snapshot() copies the name index under mu_
  // but merges shards outside it, pinning external metrics with
  // merge_gate_ so unregister() cannot free them mid-merge. Run
  // register/unregister churn against continuous snapshots; TSan (tier1's
  // -DPIMDS_SANITIZE=thread leg) would flag the old use-after-free /
  // locked-merge race.
  auto& r = Registry::instance();
  std::atomic<bool> stop{false};
  std::thread churn([&] {
    int i = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      Counter ext;
      ext.add(static_cast<std::uint64_t>(i) + 1);
      Gauge gext;
      gext.set(static_cast<std::uint64_t>(i));
      Histogram hext;
      hext.record(static_cast<std::uint64_t>(i & 1023));
      Registry::Handle h1 = r.register_counter(
          "test_obs.churn_c" + std::to_string(i & 7), &ext);
      Registry::Handle h2 = r.register_gauge(
          "test_obs.churn_g" + std::to_string(i & 7), &gext);
      Registry::Handle h3 = r.register_histogram(
          "test_obs.churn_h" + std::to_string(i & 7), &hext);
      ++i;
    }
  });
  std::thread writer([&] {
    Counter& c = r.counter("test_obs.churn_live");
    while (!stop.load(std::memory_order_relaxed)) c.add(1);
  });
  DeltaBaseline baseline;
  for (int i = 0; i < 300; ++i) {
    const MetricsSnapshot snap =
        (i & 1) != 0 ? r.snapshot() : r.delta_snapshot(baseline);
    ASSERT_FALSE(snap.counters.empty());
  }
  stop.store(true);
  churn.join();
  writer.join();
}

TEST(PimSystemObs, MailboxMetricsVisibleThroughRegistryAndAccessors) {
  runtime::PimSystem::Config cfg;
  cfg.num_vaults = 2;
  // Small injected latency: messages spend time in flight, so the pending
  // heap must park at least one message -> a nonzero high-water mark.
  cfg.inject_latency = true;
  cfg.params = LatencyParams{200.0, 3.0, 3.0, 1.0};
  runtime::PimSystem system(cfg);
  std::atomic<int> served{0};
  for (std::size_t v = 0; v < cfg.num_vaults; ++v) {
    system.set_handler(v, [&served](runtime::PimCoreApi&,
                                    const runtime::Message&) {
      served.fetch_add(1, std::memory_order_relaxed);
    });
  }
  system.start();
  for (int i = 0; i < 200; ++i) {
    runtime::Message m;
    m.kind = 1;
    m.value = static_cast<std::uint64_t>(i);
    system.send(static_cast<std::size_t>(i) % cfg.num_vaults, m);
  }
  while (served.load(std::memory_order_relaxed) < 200) {
  }
  system.stop();

  // Instance accessors.
  EXPECT_EQ(system.messages_processed(0) + system.messages_processed(1), 200u);
  EXPECT_GE(system.pending_high_water(0) + system.pending_high_water(1), 1u);

  // The same numbers must be visible process-wide through the registry
  // (the PR-1 ad-hoc struct fields are now registry-backed).
  const MetricsSnapshot snap = Registry::instance().snapshot();
  const auto* hwm = snap.find_gauge("runtime.vault0.mailbox.pending_hwm");
  ASSERT_NE(hwm, nullptr);
  EXPECT_EQ(hwm->value, system.pending_high_water(0));
  const auto* spins =
      snap.find_counter("runtime.vault0.mailbox.send_full_spins");
  ASSERT_NE(spins, nullptr);
  EXPECT_EQ(spins->value, system.send_full_spins(0));
  const auto* msgs = snap.find_counter("runtime.vault0.messages");
  ASSERT_NE(msgs, nullptr);
  EXPECT_EQ(msgs->value, system.messages_processed(0));
  const auto* drains = snap.find_histogram("runtime.vault0.mailbox.drain_batch");
  ASSERT_NE(drains, nullptr);
  EXPECT_GE(drains->data.count, 1u);
}

}  // namespace
}  // namespace pimds::obs
