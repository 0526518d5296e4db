// TraceRecorder unit tests: span bookkeeping, deterministic ring-wrap
// drops, and byte-stable Chrome trace_event export.

#include "src/obs/trace.h"

#include <gtest/gtest.h>

#include <string>

namespace eva {
namespace {

TEST(ObsTraceTest, RegistersTracksAndCountsSpans) {
  TraceRecorder recorder;
  const std::uint32_t a = recorder.RegisterTrack("alpha");
  const std::uint32_t b = recorder.RegisterTrack("beta");
  EXPECT_NE(a, b);
  EXPECT_EQ(recorder.num_tracks(), 2u);

  recorder.Instant(a, "ev.one", 1.0);
  recorder.Instant(a, "ev.two", 2.0, "arg", 7.0);
  recorder.Complete(b, "span", 1.5, 3.5, "x", 1.0, "y", 2.0);
  recorder.Counter(b, "depth", 4.0, 11.0);
  EXPECT_EQ(recorder.TotalEmitted(), 4u);
  EXPECT_EQ(recorder.TotalRetained(), 4u);
}

TEST(ObsTraceTest, ExportContainsMetadataEventsAndArgs) {
  TraceRecorder recorder;
  const std::uint32_t track = recorder.RegisterTrack("tenant0");
  recorder.Instant(track, "round", 300.0, "active_jobs", 12.0);
  recorder.Complete(track, "pack", 300.0, 300.0, "edits", 3.0);
  recorder.Counter(track, "queue", 600.0, 5.0);

  const std::string json = recorder.ToChromeJson();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("thread_name"), std::string::npos);
  EXPECT_NE(json.find("tenant0"), std::string::npos);
  EXPECT_NE(json.find("\"round\""), std::string::npos);
  EXPECT_NE(json.find("\"active_jobs\":12"), std::string::npos);
  // Instant events carry thread scope; counters are "C" phase.
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"C\""), std::string::npos);
  // Virtual seconds render as microseconds: 300 s -> 300000000 us.
  EXPECT_NE(json.find("300000000"), std::string::npos);
}

TEST(ObsTraceTest, ReExportIsByteIdentical) {
  TraceRecorder recorder;
  const std::uint32_t track = recorder.RegisterTrack("t");
  for (int i = 0; i < 100; ++i) {
    recorder.Instant(track, "ev", static_cast<double>(i) * 0.1, "i",
                     static_cast<double>(i));
  }
  EXPECT_EQ(recorder.ToChromeJson(), recorder.ToChromeJson());
}

TEST(ObsTraceTest, SameSpansAcrossRecordersSerializeIdentically) {
  const auto emit = [](TraceRecorder& recorder) {
    const std::uint32_t a = recorder.RegisterTrack("a");
    const std::uint32_t b = recorder.RegisterTrack("b");
    // Interleave emits across tracks; export sorts by (ts, track, seq) so
    // emit order across tracks cannot matter.
    recorder.Instant(b, "late", 5.0);
    recorder.Instant(a, "early", 1.0);
    recorder.Complete(a, "work", 2.0, 4.0, "n", 3.0);
    recorder.Counter(b, "gauge", 2.0, 9.5);
  };
  TraceRecorder first;
  TraceRecorder second;
  emit(first);
  emit(second);
  EXPECT_EQ(first.ToChromeJson(), second.ToChromeJson());
}

TEST(ObsTraceTest, RingWrapDropsOldestDeterministically) {
  TraceRecorder::Options options;
  options.max_spans_per_track = 8;
  TraceRecorder recorder(options);
  const std::uint32_t track = recorder.RegisterTrack("t");
  for (int i = 0; i < 20; ++i) {
    recorder.Instant(track, "ev", static_cast<double>(i), "i",
                     static_cast<double>(i));
  }
  EXPECT_EQ(recorder.TotalEmitted(), 20u);
  EXPECT_EQ(recorder.TotalRetained(), 8u);
  const std::string json = recorder.ToChromeJson();
  // Oldest spans (i < 12) were overwritten; the trailing window survives.
  EXPECT_EQ(json.find("\"i\":11"), std::string::npos);
  EXPECT_NE(json.find("\"i\":12"), std::string::npos);
  EXPECT_NE(json.find("\"i\":19"), std::string::npos);
}

TEST(ObsTraceTest, NumbersFormatDeterministically) {
  TraceRecorder recorder;
  const std::uint32_t track = recorder.RegisterTrack("t");
  recorder.Instant(track, "ev", 0.0, "whole", 42.0, "frac", 0.125);
  const std::string json = recorder.ToChromeJson();
  // Integral doubles print without a trailing ".0"; fractions via %.17g.
  EXPECT_NE(json.find("\"whole\":42"), std::string::npos);
  EXPECT_EQ(json.find("\"whole\":42.0"), std::string::npos);
  EXPECT_NE(json.find("\"frac\":0.125"), std::string::npos);
}

TEST(ObsTraceTest, NullBindingIsFalsey) {
  TraceBinding binding;
  EXPECT_FALSE(binding);
  TraceRecorder recorder;
  binding.recorder = &recorder;
  EXPECT_TRUE(binding);
}

}  // namespace
}  // namespace eva
