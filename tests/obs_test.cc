// Observability subsystem tests: histogram bucket math, deterministic shard
// merges under parallel writers, Chrome-trace well-formedness, and the
// zero-allocation guarantee for steady-state metric writes.
//
// The counting allocator overrides global operator new/delete for THIS test
// binary only (same pattern as hom_alloc_test), so the counters see every
// allocation a metric increment or span record makes.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <latch>
#include <new>
#include <sstream>
#include <string>
#include <vector>

#include "src/common/thread_pool.h"
#include "src/obs/json.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"

namespace {

std::atomic<std::size_t> g_allocations{0};

}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  void* p = std::malloc(size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* operator new[](std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  void* p = std::malloc(size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace tdx::obs {
namespace {

// --- histogram bucket math -------------------------------------------------

TEST(HistogramBuckets, ZeroLandsInBucketZero) {
  EXPECT_EQ(HistogramBucketIndex(0), 0u);
}

TEST(HistogramBuckets, PowersOfTwoLandOnBoundaries) {
  // Bucket b holds [2^(b-1), 2^b): the value 1 is bucket 1, 2 is bucket 2,
  // 3 is bucket 2, 4 is bucket 3, ...
  EXPECT_EQ(HistogramBucketIndex(1), 1u);
  EXPECT_EQ(HistogramBucketIndex(2), 2u);
  EXPECT_EQ(HistogramBucketIndex(3), 2u);
  EXPECT_EQ(HistogramBucketIndex(4), 3u);
  EXPECT_EQ(HistogramBucketIndex(7), 3u);
  EXPECT_EQ(HistogramBucketIndex(8), 4u);
}

TEST(HistogramBuckets, EveryValueLandsBelowItsBucketBound) {
  for (std::uint64_t v : {0ull, 1ull, 2ull, 3ull, 100ull, 65536ull,
                          1000000007ull, ~0ull}) {
    const std::size_t b = HistogramBucketIndex(v);
    ASSERT_LT(b, kHistogramBuckets);
    // The overflow bucket's bound is inclusive (UINT64_MAX is in range).
    EXPECT_LE(v, HistogramBucketBound(b)) << "value " << v;
    if (b > 0 && b + 1 < kHistogramBuckets) {
      EXPECT_GE(v, HistogramBucketBound(b - 1)) << "value " << v;
    }
  }
}

TEST(HistogramBuckets, HugeValuesOverflowIntoLastBucket) {
  EXPECT_EQ(HistogramBucketIndex(~0ull), kHistogramBuckets - 1);
  EXPECT_EQ(HistogramBucketBound(kHistogramBuckets - 1), ~0ull);
}

// --- registry semantics ----------------------------------------------------

TEST(MetricsRegistry, SameNameSharesOneMetric) {
  Counter a("obs_test.shared");
  Counter b("obs_test.shared");
  a.Inc(2);
  b.Inc(3);
  const MetricsSnapshot snap = MetricsRegistry::Instance().Snapshot();
  const MetricValue* m = snap.Find("obs_test.shared");
  ASSERT_NE(m, nullptr);
  EXPECT_EQ(m->value, 5u);
}

TEST(MetricsRegistry, GaugeKeepsHighWatermark) {
  Gauge gauge("obs_test.gauge");
  gauge.Set(7);
  gauge.Set(3);
  const MetricsSnapshot snap = MetricsRegistry::Instance().Snapshot();
  const MetricValue* m = snap.Find("obs_test.gauge");
  ASSERT_NE(m, nullptr);
  EXPECT_EQ(m->value, 7u);
}

TEST(MetricsRegistry, DisabledWritesAreDropped) {
  Counter counter("obs_test.disabled");
  MetricsRegistry::Instance().SetEnabled(false);
  counter.Inc(100);
  MetricsRegistry::Instance().SetEnabled(true);
  counter.Inc(1);
  const MetricsSnapshot snap = MetricsRegistry::Instance().Snapshot();
  const MetricValue* m = snap.Find("obs_test.disabled");
  ASSERT_NE(m, nullptr);
  EXPECT_EQ(m->value, 1u);
}

TEST(MetricsRegistry, ParallelWritersMergeDeterministically) {
  // The merge must equal the arithmetic total no matter how ParallelFor
  // schedules the writers across pool threads (sum is commutative), and the
  // histogram must place every sample. Mirrors the engines' --jobs mode.
  Counter counter("obs_test.parallel_counter");
  Histogram histogram("obs_test.parallel_histogram");
  Gauge gauge("obs_test.parallel_gauge");
  constexpr std::size_t kTasks = 64;
  constexpr std::uint64_t kPerTask = 1000;
  for (int round = 0; round < 3; ++round) {
    ParallelFor(8, kTasks, [&](std::size_t i) {
      counter.Inc(kPerTask);
      histogram.Record(i);
      gauge.Set(i);
    });
  }
  const MetricsSnapshot snap = MetricsRegistry::Instance().Snapshot();
  const MetricValue* c = snap.Find("obs_test.parallel_counter");
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->value, 3 * kTasks * kPerTask);
  const MetricValue* h = snap.Find("obs_test.parallel_histogram");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count, 3 * kTasks);
  std::uint64_t bucket_total = 0;
  for (const std::uint64_t b : h->buckets) bucket_total += b;
  EXPECT_EQ(bucket_total, h->count);
  const MetricValue* g = snap.Find("obs_test.parallel_gauge");
  ASSERT_NE(g, nullptr);
  EXPECT_EQ(g->value, kTasks - 1);
}

TEST(MetricsRegistry, ShardsAreRecycledAcrossPools) {
  Counter counter("obs_test.recycle");
  // Every round leases exactly four worker shards: each task holds its
  // worker at a four-party latch, so no worker can finish early and take a
  // second task while another worker (starting late under load) runs none.
  const auto round = [&] {
    std::latch all_running(4);
    ParallelFor(4, 4, [&](std::size_t) {
      counter.Inc();
      all_running.arrive_and_wait();
    });
  };
  for (int i = 0; i < 4; ++i) round();
  const std::size_t after_first_rounds =
      MetricsRegistry::Instance().shard_count();
  for (int i = 0; i < 4; ++i) round();
  // Exited pool threads return their shards to the free list, so repeated
  // pools reuse them instead of growing the shard set without bound.
  EXPECT_EQ(MetricsRegistry::Instance().shard_count(), after_first_rounds);
}

// --- snapshot JSON schema --------------------------------------------------

TEST(MetricsSnapshot, ToJsonHasStableSchema) {
  Counter counter("obs_test.json_counter");
  Histogram histogram("obs_test.json_histogram");
  counter.Inc(5);
  histogram.Record(100);
  const std::string text = MetricsRegistry::Instance().Snapshot().ToJson();
  auto parsed = ParseJson(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  const Json* version = parsed->Find("version");
  ASSERT_NE(version, nullptr);
  EXPECT_EQ(version->as_int(), 1);
  const Json* counters = parsed->Find("counters");
  ASSERT_NE(counters, nullptr);
  ASSERT_TRUE(counters->is_object());
  const Json* c = counters->Find("obs_test.json_counter");
  ASSERT_NE(c, nullptr);
  EXPECT_GE(c->as_number(), 5);
  // Counter keys are sorted, so the snapshot diffs cleanly in CI.
  std::string prev;
  for (const JsonMember& member : counters->members()) {
    EXPECT_LT(prev, member.first);
    prev = member.first;
  }
  const Json* histograms = parsed->Find("histograms");
  ASSERT_NE(histograms, nullptr);
  const Json* h = histograms->Find("obs_test.json_histogram");
  ASSERT_NE(h, nullptr);
  ASSERT_NE(h->Find("count"), nullptr);
  ASSERT_NE(h->Find("sum"), nullptr);
  ASSERT_NE(h->Find("buckets"), nullptr);
}

// --- zero-allocation steady state ------------------------------------------

TEST(MetricsAlloc, SteadyStateWritesDoNotAllocate) {
  Counter counter("obs_test.alloc_counter");
  Histogram histogram("obs_test.alloc_histogram");
  Gauge gauge("obs_test.alloc_gauge");
  // Warm: the first write per thread may grow this thread's shard.
  counter.Inc();
  histogram.Record(1);
  gauge.Set(1);
  const std::size_t before = g_allocations.load(std::memory_order_relaxed);
  for (std::uint64_t i = 0; i < 10000; ++i) {
    counter.Inc();
    histogram.Record(i);
    gauge.Set(i);
  }
  const std::size_t after = g_allocations.load(std::memory_order_relaxed);
  EXPECT_EQ(after - before, 0u);
}

TEST(TraceAlloc, SpansWithoutTracerDoNotAllocate) {
  const std::size_t before = g_allocations.load(std::memory_order_relaxed);
  for (int i = 0; i < 10000; ++i) {
    TDX_TRACE_SPAN("obs_test.noop");
  }
  const std::size_t after = g_allocations.load(std::memory_order_relaxed);
  EXPECT_EQ(after - before, 0u);
}

TEST(TraceAlloc, RecordingStaysWithinReservedBuffer) {
  Tracer tracer;
  ScopedTracer installed(&tracer);
  // Warm: first span acquires this thread's event buffer (reserved ahead).
  { TDX_TRACE_SPAN("obs_test.warm"); }
  const std::size_t before = g_allocations.load(std::memory_order_relaxed);
  for (int i = 0; i < 100; ++i) {
    TDX_TRACE_SPAN("obs_test.record");
  }
  const std::size_t after = g_allocations.load(std::memory_order_relaxed);
  EXPECT_EQ(after - before, 0u);
  EXPECT_GE(tracer.event_count(), 101u);
}

// --- trace well-formedness -------------------------------------------------

/// Parses a tracer's output and returns the events array (asserting the
/// document shape on the way).
Json ParseTrace(const Tracer& tracer) {
  auto parsed = ParseJson(tracer.ToChromeTraceJson());
  EXPECT_TRUE(parsed.ok()) << parsed.status();
  if (!parsed.ok()) return Json();
  const Json* events = parsed->Find("traceEvents");
  EXPECT_NE(events, nullptr);
  if (events == nullptr) return Json();
  EXPECT_TRUE(events->is_array());
  return *events;
}

TEST(Trace, EmitsWellFormedCompleteEvents) {
  Tracer tracer;
  {
    ScopedTracer installed(&tracer);
    TDX_TRACE_SPAN("outer");
    { TDX_TRACE_SPAN("inner"); }
    { TDX_TRACE_SPAN("inner"); }
  }
  const Json events = ParseTrace(tracer);
  ASSERT_EQ(events.items().size(), 3u);
  for (const Json& event : events.items()) {
    // Complete events only: a trace can never contain an orphaned begin or
    // end, even when a guard trip unwinds an engine mid-phase.
    const Json* ph = event.Find("ph");
    ASSERT_NE(ph, nullptr);
    EXPECT_EQ(ph->as_string(), "X");
    EXPECT_NE(event.Find("name"), nullptr);
    EXPECT_NE(event.Find("ts"), nullptr);
    EXPECT_NE(event.Find("dur"), nullptr);
    EXPECT_NE(event.Find("tid"), nullptr);
  }
}

TEST(Trace, SpansNestPerThread) {
  Tracer tracer;
  {
    ScopedTracer installed(&tracer);
    TDX_TRACE_SPAN("root");
    ParallelFor(4, 16, [&](std::size_t i) {
      TDX_TRACE_SPAN("task");
      if (i % 2 == 0) {
        TDX_TRACE_SPAN("subtask");
      }
    });
  }
  const Json events = ParseTrace(tracer);
  ASSERT_GE(events.items().size(), 25u);
  // On one thread, any two spans either nest or are disjoint — intervals
  // never partially overlap. This is the property chrome://tracing renders
  // as a clean flame graph.
  const auto& items = events.items();
  for (std::size_t i = 0; i < items.size(); ++i) {
    for (std::size_t j = i + 1; j < items.size(); ++j) {
      if (items[i].Find("tid")->as_int() != items[j].Find("tid")->as_int()) {
        continue;
      }
      const double a0 = items[i].Find("ts")->as_number();
      const double a1 = a0 + items[i].Find("dur")->as_number();
      const double b0 = items[j].Find("ts")->as_number();
      const double b1 = b0 + items[j].Find("dur")->as_number();
      const bool disjoint = a1 <= b0 || b1 <= a0;
      const bool a_contains_b = a0 <= b0 && b1 <= a1;
      const bool b_contains_a = b0 <= a0 && a1 <= b1;
      EXPECT_TRUE(disjoint || a_contains_b || b_contains_a)
          << "spans " << i << " and " << j << " partially overlap";
    }
  }
}

TEST(Trace, ParentsPrecedeChildren) {
  Tracer tracer;
  const auto spin_micros = [&tracer](std::uint64_t n) {
    const std::uint64_t until = tracer.NowMicros() + n;
    while (tracer.NowMicros() < until) {
    }
  };
  {
    ScopedTracer installed(&tracer);
    TDX_TRACE_SPAN("parent");
    {
      TDX_TRACE_SPAN("child");
      spin_micros(2);
    }
    // The parent must outlast the child so the (ts asc, dur desc) sort has
    // a strict order to establish.
    spin_micros(2);
  }
  const Json events = ParseTrace(tracer);
  ASSERT_EQ(events.items().size(), 2u);
  // Sorted by (ts asc, dur desc): the enclosing span comes first.
  EXPECT_EQ(events.items()[0].Find("name")->as_string(), "parent");
  EXPECT_EQ(events.items()[1].Find("name")->as_string(), "child");
}

TEST(Trace, ArgsRenderIntoTheEvent) {
  Tracer tracer;
  {
    ScopedTracer installed(&tracer);
    TraceSpan span("with_arg");
    span.SetArg("tasks", 42);
  }
  const Json events = ParseTrace(tracer);
  ASSERT_EQ(events.items().size(), 1u);
  const Json* args = events.items()[0].Find("args");
  ASSERT_NE(args, nullptr);
  const Json* tasks = args->Find("tasks");
  ASSERT_NE(tasks, nullptr);
  EXPECT_EQ(tasks->as_int(), 42);
}

TEST(Trace, MarkProcessStartBackdatesTheEpoch) {
  Tracer tracer;
  tracer.MarkProcessStart();
  if (tracer.event_count() == 0) {
    GTEST_SKIP() << "no process start time on this platform";
  }
  {
    ScopedTracer installed(&tracer);
    TDX_TRACE_SPAN("work");
  }
  const Json events = ParseTrace(tracer);
  ASSERT_EQ(events.items().size(), 2u);
  // The init span sorts first (ts 0) and ends at or before every later
  // span's start: startup and run time never overlap in the trace.
  const Json& init = events.items()[0];
  EXPECT_EQ(init.Find("name")->as_string(), "process.init");
  EXPECT_EQ(init.Find("ts")->as_number(), 0.0);
  const double init_end = init.Find("dur")->as_number();
  EXPECT_GT(init_end, 0.0);
  EXPECT_GE(events.items()[1].Find("ts")->as_number(), init_end);
}

TEST(Trace, NoTracerMeansNoEvents) {
  Tracer tracer;
  { TDX_TRACE_SPAN("not_recorded"); }
  EXPECT_EQ(tracer.event_count(), 0u);
}

TEST(Trace, WriteMatchesToChromeTraceJson) {
  Tracer tracer;
  {
    ScopedTracer installed(&tracer);
    TDX_TRACE_SPAN("span");
  }
  std::ostringstream out;
  tracer.Write(out);
  EXPECT_EQ(out.str(), tracer.ToChromeTraceJson() + "\n");
}

}  // namespace
}  // namespace tdx::obs
