// Distributed trace-context tests: id generation and hex round trips, the
// thread-local context slot, ScopedSpan's parent/child chaining under an
// active context, span collection on the request record, and the
// remote-adoption flow flag.

#include "obs/trace_context.h"

#include <gtest/gtest.h>

#include <set>
#include <thread>
#include <vector>

#include "obs/provenance.h"
#include "obs/tail_trace.h"
#include "obs/trace.h"

namespace pasa {
namespace obs {
namespace {

TEST(TraceContextTest, NewIdsAreNonZeroAndDistinct) {
  std::set<uint64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const uint64_t id = NewTraceId();
    EXPECT_NE(id, 0u);
    EXPECT_TRUE(seen.insert(id).second) << "duplicate id";
  }
}

TEST(TraceContextTest, HexRoundTrip) {
  EXPECT_EQ(TraceIdHex(0x0123456789abcdefULL), "0123456789abcdef");
  EXPECT_EQ(TraceIdHex(1), "0000000000000001");
  EXPECT_EQ(TraceIdFromHex("0123456789abcdef"), 0x0123456789abcdefULL);
  const uint64_t id = NewTraceId();
  EXPECT_EQ(TraceIdFromHex(TraceIdHex(id)), id);
}

TEST(TraceContextTest, FromHexRejectsGarbage) {
  EXPECT_EQ(TraceIdFromHex(""), 0u);
  EXPECT_EQ(TraceIdFromHex("not hex"), 0u);
  EXPECT_EQ(TraceIdFromHex("12345678901234567"), 0u);  // too long
}

TEST(TraceContextTest, NoContextByDefault) {
  EXPECT_EQ(MutableCurrentTraceContext(), nullptr);
  EXPECT_FALSE(CurrentTraceContext().valid());
}

TEST(TraceContextTest, ScopedInstallAndRestore) {
  TraceContext ctx;
  ctx.trace_id = 7;
  ctx.span_id = 9;
  {
    ScopedTraceContext scope(ctx);
    ASSERT_NE(MutableCurrentTraceContext(), nullptr);
    EXPECT_EQ(CurrentTraceContext().trace_id, 7u);
    EXPECT_EQ(CurrentTraceContext().span_id, 9u);
    TraceContext inner;
    inner.trace_id = 8;
    {
      ScopedTraceContext nested(inner);
      EXPECT_EQ(CurrentTraceContext().trace_id, 8u);
    }
    EXPECT_EQ(CurrentTraceContext().trace_id, 7u);
  }
  EXPECT_EQ(MutableCurrentTraceContext(), nullptr);
}

TEST(TraceContextTest, ContextIsThreadLocal) {
  TraceContext ctx;
  ctx.trace_id = 42;
  ScopedTraceContext scope(ctx);
  bool other_thread_sees_context = true;
  std::thread probe([&] {
    other_thread_sees_context = MutableCurrentTraceContext() != nullptr;
  });
  probe.join();
  EXPECT_FALSE(other_thread_sees_context);
}

TEST(TraceContextTest, SpansChainUnderContext) {
  TraceContext ctx;
  ctx.trace_id = NewTraceId();
  ScopedTraceContext scope(ctx);
  ScopedSpan outer("outer", ScopedSpan::kRoot);
  EXPECT_EQ(outer.trace_id(), ctx.trace_id);
  EXPECT_NE(outer.span_id(), 0u);
  EXPECT_EQ(CurrentTraceContext().span_id, outer.span_id());
  {
    ScopedSpan inner("inner");
    EXPECT_EQ(inner.trace_id(), ctx.trace_id);
    EXPECT_NE(inner.span_id(), outer.span_id());
    EXPECT_EQ(CurrentTraceContext().span_id, inner.span_id());
  }
  // Closing the inner span restores the outer as the innermost.
  EXPECT_EQ(CurrentTraceContext().span_id, outer.span_id());
}

TEST(TraceContextTest, SpansWithoutContextGetNoIds) {
  ScopedSpan span("plain", ScopedSpan::kRoot);
  EXPECT_EQ(span.trace_id(), 0u);
  EXPECT_EQ(span.span_id(), 0u);
}

// Arms the tail ring, so request records collect spans, for one test.
struct ArmTailRing {
  ArmTailRing() { TailTraceRing::Global().Enable(); }
  ~ArmTailRing() {
    TailTraceRing::Global().Disable();
    TailTraceRing::Global().Reset();
  }
};

// The request record collects the span tree of its traced request.
TEST(TraceContextTest, CollectorCapturesSpanTree) {
  TraceContext ctx;
  ctx.trace_id = NewTraceId();
  ScopedTraceContext scope(ctx);
  uint64_t outer_id = 0;
  uint64_t inner_id = 0;
  std::vector<CollectedSpan> spans;
  {
    ArmTailRing arm;
    ScopedProvenanceRecord record;
    {
      ScopedSpan outer("csp/handle", ScopedSpan::kRoot);
      outer_id = outer.span_id();
      {
        ScopedSpan inner("lbs/serve");
        inner_id = inner.span_id();
      }
    }
    spans = record.spans();
  }
  ASSERT_EQ(spans.size(), 2u);
  // Spans report on close, so the inner lands first.
  EXPECT_EQ(spans[0].span_id, inner_id);
  EXPECT_EQ(spans[0].parent_span_id, outer_id);
  EXPECT_EQ(spans[0].path, "csp/handle/lbs/serve");
  EXPECT_EQ(spans[1].span_id, outer_id);
  EXPECT_EQ(spans[1].parent_span_id, 0u);
  EXPECT_GE(spans[1].duration_micros, spans[0].duration_micros);
  // Start times are relative to the record's open.
  EXPECT_GE(spans[1].start_micros, 0.0);
  EXPECT_LE(spans[1].start_micros, spans[0].start_micros);

  // With the tail ring disarmed the record collects nothing.
  ScopedProvenanceRecord record;
  { ScopedSpan span("csp/handle", ScopedSpan::kRoot); }
  EXPECT_TRUE(record.spans().empty());
}

TEST(TraceContextTest, CollectorIgnoredWithoutContext) {
  ArmTailRing arm;
  ScopedProvenanceRecord record;
  { ScopedSpan span("untraced", ScopedSpan::kRoot); }
  EXPECT_TRUE(record.spans().empty());
}

TEST(TraceContextTest, RemoteFlagClearedByFirstSpan) {
  TraceContext ctx;
  ctx.trace_id = NewTraceId();
  ctx.span_id = 123;  // the remote parent
  ctx.remote = true;
  ScopedTraceContext scope(ctx);
  ScopedSpan first("net/dispatch", ScopedSpan::kRoot);
  EXPECT_FALSE(MutableCurrentTraceContext()->remote);
  // The adopted span parents under the wire-carried parent span id.
  EXPECT_EQ(CurrentTraceContext().span_id, first.span_id());
}

}  // namespace
}  // namespace obs
}  // namespace pasa
