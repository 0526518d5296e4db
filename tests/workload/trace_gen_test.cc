#include "src/workload/trace_gen.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>

#include "src/common/stats.h"

namespace eva {
namespace {

TEST(SyntheticTraceTest, GeneratesRequestedJobCount) {
  SyntheticTraceOptions options;
  options.num_jobs = 120;
  const Trace trace = GenerateSyntheticTrace(options);
  EXPECT_EQ(trace.jobs.size(), 120u);
}

TEST(SyntheticTraceTest, ArrivalsSortedAndIdsSequential) {
  SyntheticTraceOptions options;
  options.num_jobs = 50;
  const Trace trace = GenerateSyntheticTrace(options);
  for (std::size_t i = 0; i < trace.jobs.size(); ++i) {
    EXPECT_EQ(trace.jobs[i].id, static_cast<JobId>(i));
    if (i > 0) {
      EXPECT_GE(trace.jobs[i].arrival_time_s, trace.jobs[i - 1].arrival_time_s);
    }
  }
}

TEST(SyntheticTraceTest, DurationsWithinConfiguredRange) {
  SyntheticTraceOptions options;
  options.num_jobs = 200;
  const Trace trace = GenerateSyntheticTrace(options);
  for (const JobSpec& job : trace.jobs) {
    EXPECT_GE(job.duration_s, HoursToSeconds(0.5));
    EXPECT_LE(job.duration_s, HoursToSeconds(3.0));
  }
}

TEST(SyntheticTraceTest, MeanInterarrivalMatchesPoissonRate) {
  SyntheticTraceOptions options;
  options.num_jobs = 4000;
  options.mean_interarrival_s = 1200.0;
  const Trace trace = GenerateSyntheticTrace(options);
  const double span = trace.jobs.back().arrival_time_s;
  EXPECT_NEAR(span / options.num_jobs, 1200.0, 60.0);
}

TEST(SyntheticTraceTest, DeterministicForSeed) {
  SyntheticTraceOptions options;
  options.num_jobs = 30;
  options.seed = 9;
  const Trace a = GenerateSyntheticTrace(options);
  const Trace b = GenerateSyntheticTrace(options);
  ASSERT_EQ(a.jobs.size(), b.jobs.size());
  for (std::size_t i = 0; i < a.jobs.size(); ++i) {
    EXPECT_EQ(a.jobs[i].workload, b.jobs[i].workload);
    EXPECT_DOUBLE_EQ(a.jobs[i].arrival_time_s, b.jobs[i].arrival_time_s);
  }
}

TEST(SyntheticTraceTest, MultiTaskWorkloadsGetDefaultTaskCount) {
  SyntheticTraceOptions options;
  options.num_jobs = 300;
  const Trace trace = GenerateSyntheticTrace(options);
  bool saw_multi = false;
  for (const JobSpec& job : trace.jobs) {
    EXPECT_EQ(job.num_tasks, WorkloadRegistry::Get(job.workload).default_num_tasks);
    saw_multi |= job.num_tasks > 1;
  }
  EXPECT_TRUE(saw_multi);  // The two ResNet18 entries appear w.h.p. in 300 draws.
}

TEST(MultiTaskMicroTraceTest, FourTasksPerJob) {
  MultiTaskMicroOptions options;
  options.num_jobs = 100;
  const Trace trace = GenerateMultiTaskMicroTrace(options);
  EXPECT_EQ(trace.jobs.size(), 100u);
  for (const JobSpec& job : trace.jobs) {
    EXPECT_EQ(job.num_tasks, 4);
    EXPECT_GE(job.duration_s, HoursToSeconds(0.5));
    EXPECT_LE(job.duration_s, HoursToSeconds(16.0));
  }
}

TEST(AlibabaDurationTest, MatchesTable9Percentiles) {
  Rng rng(1);
  std::vector<double> hours;
  for (int i = 0; i < 60000; ++i) {
    hours.push_back(SecondsToHours(SampleDuration(DurationModel::kAlibaba, rng)));
  }
  // Table 9 row 1: median 0.2h, P80 1.0h, P95 5.2h, mean 9.1h.
  EXPECT_NEAR(Quantile(hours, 0.5), 0.2, 0.05);
  EXPECT_NEAR(Quantile(hours, 0.8), 1.0, 0.25);
  EXPECT_NEAR(Quantile(hours, 0.95), 5.2, 2.0);
  const double mean = Mean(hours);
  EXPECT_GT(mean, 4.0);
  EXPECT_LT(mean, 14.0);
}

TEST(AlibabaDurationTest, EightyPercentUnderOneHour) {
  Rng rng(2);
  int under = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    if (SampleDuration(DurationModel::kAlibaba, rng) < kSecondsPerHour) {
      ++under;
    }
  }
  EXPECT_NEAR(static_cast<double>(under) / n, 0.8, 0.05);
}

TEST(GavelDurationTest, RangeAndMedian) {
  Rng rng(3);
  std::vector<double> hours;
  for (int i = 0; i < 40000; ++i) {
    const double h = SecondsToHours(SampleDuration(DurationModel::kGavel, rng));
    // 10^1.5 to 10^4 minutes.
    EXPECT_GE(h, std::pow(10.0, 1.5) / 60.0 * 0.999);
    EXPECT_LE(h, std::pow(10.0, 4.0) / 60.0 * 1.001);
    hours.push_back(h);
  }
  // Overall median: P(x <= m) = 0.5 within the 80% branch gives
  // x = 1.5 + 0.5/0.8 * 1.5 = 2.4375, i.e. 10^2.4375 minutes = 4.56 h.
  EXPECT_NEAR(Quantile(hours, 0.5), std::pow(10.0, 2.4375) / 60.0, 0.4);
  // Table 9 row 2 reports mean 16.7h; heavy upper branch dominates.
  EXPECT_GT(Mean(hours), 8.0);
}

TEST(AlibabaTraceTest, GpuCompositionMatchesTable8) {
  AlibabaTraceOptions options;
  options.num_jobs = 30000;
  const Trace trace = GenerateAlibabaTrace(options);
  int by_gpu[9] = {0};
  for (const JobSpec& job : trace.jobs) {
    ++by_gpu[static_cast<int>(job.demand_p3.gpus())];
  }
  const double n = static_cast<double>(trace.jobs.size());
  EXPECT_NEAR(by_gpu[0] / n, 0.1341, 0.01);
  EXPECT_NEAR(by_gpu[1] / n, 0.8617, 0.01);
  EXPECT_NEAR(by_gpu[2] / n, 0.0020, 0.002);
  EXPECT_NEAR(by_gpu[4] / n, 0.0018, 0.002);
  EXPECT_NEAR(by_gpu[8] / n, 0.0004, 0.001);
}

TEST(AlibabaTraceTest, AllJobsSingleTaskAndHostable) {
  AlibabaTraceOptions options;
  options.num_jobs = 2000;
  const Trace trace = GenerateAlibabaTrace(options);
  const InstanceCatalog catalog = InstanceCatalog::AwsDefault();
  for (const JobSpec& job : trace.jobs) {
    EXPECT_EQ(job.num_tasks, 1);
    EXPECT_TRUE(catalog
                    .CheapestFitting([&job](InstanceFamily family) {
                      return job.DemandFor(family);
                    })
                    .has_value())
        << job.demand_p3.ToString();
  }
}

TEST(AlibabaTraceTest, WorkloadAssignmentMatchesGpuClass) {
  AlibabaTraceOptions options;
  options.num_jobs = 2000;
  const Trace trace = GenerateAlibabaTrace(options);
  for (const JobSpec& job : trace.jobs) {
    const bool job_has_gpu = job.demand_p3.gpus() > 0.0;
    EXPECT_EQ(WorkloadRegistry::Get(job.workload).IsGpuWorkload(), job_has_gpu);
  }
}

TEST(WithMultiGpuFractionTest, ZeroFractionMakesAllGpuJobsSingleGpu) {
  AlibabaTraceOptions options;
  options.num_jobs = 1000;
  Trace trace = WithMultiGpuFraction(GenerateAlibabaTrace(options), 0.0, 1);
  for (const JobSpec& job : trace.jobs) {
    if (job.demand_p3.gpus() > 0.0) {
      EXPECT_DOUBLE_EQ(job.demand_p3.gpus(), 1.0);
    }
  }
}

TEST(WithMultiGpuFractionTest, FractionAndRatioRespected) {
  AlibabaTraceOptions options;
  options.num_jobs = 20000;
  Trace trace = WithMultiGpuFraction(GenerateAlibabaTrace(options), 0.5, 2);
  int multi = 0;
  int gpu_jobs = 0;
  int two = 0;
  int four = 0;
  int eight = 0;
  for (const JobSpec& job : trace.jobs) {
    const double g = job.demand_p3.gpus();
    if (g <= 0.0) {
      continue;
    }
    ++gpu_jobs;
    if (g > 1.0) {
      ++multi;
      two += g == 2.0;
      four += g == 4.0;
      eight += g == 8.0;
    }
  }
  EXPECT_NEAR(static_cast<double>(multi) / gpu_jobs, 0.5, 0.03);
  // 5:4:1 ratio.
  EXPECT_NEAR(static_cast<double>(two) / multi, 0.5, 0.05);
  EXPECT_NEAR(static_cast<double>(four) / multi, 0.4, 0.05);
  EXPECT_NEAR(static_cast<double>(eight) / multi, 0.1, 0.05);
}

TEST(WithMultiGpuFractionTest, NonGpuJobsUntouched) {
  AlibabaTraceOptions options;
  options.num_jobs = 3000;
  const Trace base = GenerateAlibabaTrace(options);
  const Trace modified = WithMultiGpuFraction(base, 0.6, 3);
  ASSERT_EQ(base.jobs.size(), modified.jobs.size());
  for (std::size_t i = 0; i < base.jobs.size(); ++i) {
    if (base.jobs[i].demand_p3.gpus() == 0.0) {
      EXPECT_EQ(modified.jobs[i].demand_p3, base.jobs[i].demand_p3);
    }
  }
}

TEST(WithMultiTaskFractionTest, FractionAndSplitRespected) {
  AlibabaTraceOptions options;
  options.num_jobs = 20000;
  const Trace trace = WithMultiTaskFraction(GenerateAlibabaTrace(options), 0.4, 4);
  int multi = 0;
  int two = 0;
  for (const JobSpec& job : trace.jobs) {
    if (job.num_tasks > 1) {
      ++multi;
      two += job.num_tasks == 2;
      EXPECT_TRUE(job.num_tasks == 2 || job.num_tasks == 4);
    }
  }
  EXPECT_NEAR(static_cast<double>(multi) / trace.jobs.size(), 0.4, 0.02);
  EXPECT_NEAR(static_cast<double>(two) / multi, 0.5, 0.04);
}

TEST(WithArrivalRateTest, RescalesToTargetRate) {
  AlibabaTraceOptions options;
  options.num_jobs = 5000;
  const Trace trace = WithArrivalRate(GenerateAlibabaTrace(options), 1.5);
  const double hours = SecondsToHours(trace.jobs.back().arrival_time_s);
  EXPECT_NEAR(trace.jobs.size() / hours, 1.5, 0.01);
}

TEST(TraceCsvTest, RoundTripPreservesJobs) {
  SyntheticTraceOptions options;
  options.num_jobs = 25;
  const Trace trace = GenerateSyntheticTrace(options);
  const std::optional<Trace> loaded = Trace::FromCsv(trace.ToCsv(), trace.name);
  ASSERT_TRUE(loaded.has_value());
  ASSERT_EQ(loaded->jobs.size(), trace.jobs.size());
  for (std::size_t i = 0; i < trace.jobs.size(); ++i) {
    EXPECT_EQ(loaded->jobs[i].id, trace.jobs[i].id);
    EXPECT_EQ(loaded->jobs[i].workload, trace.jobs[i].workload);
    EXPECT_EQ(loaded->jobs[i].num_tasks, trace.jobs[i].num_tasks);
    EXPECT_NEAR(loaded->jobs[i].arrival_time_s, trace.jobs[i].arrival_time_s, 1.0);
    EXPECT_NEAR(loaded->jobs[i].duration_s, trace.jobs[i].duration_s, 1.0);
    EXPECT_EQ(loaded->jobs[i].demand_p3, trace.jobs[i].demand_p3);
  }
}

TEST(TraceCsvTest, RejectsGarbage) {
  EXPECT_FALSE(Trace::FromCsv("not,a,trace\n1,2,3\n", "x").has_value());
  EXPECT_FALSE(Trace::FromCsv("", "x").has_value());
}

// A one-job trace's CSV with column `column` of its row set to `value`.
std::string CsvWithField(int column, const std::string& value) {
  Trace trace;
  trace.name = "one";
  trace.jobs.push_back(JobSpec::FromWorkload(0, 10.0, 0, 3600.0, 1));
  const std::string csv = trace.ToCsv();
  const std::size_t row_start = csv.find('\n') + 1;
  std::size_t begin = row_start;
  for (int i = 0; i < column; ++i) {
    begin = csv.find(',', begin) + 1;
  }
  std::size_t end = csv.find_first_of(",\n", begin);
  if (end == std::string::npos) {
    end = csv.size();
  }
  return csv.substr(0, begin) + value + csv.substr(end);
}

TEST(TraceCsvTest, AcceptsTheUnmodifiedRow) {
  EXPECT_TRUE(Trace::FromCsv(CsvWithField(4, "0"), "x").has_value());
  EXPECT_TRUE(Trace::FromCsv(CsvWithField(10, "60"), "x").has_value());
}

TEST(TraceCsvTest, RejectsNonFiniteFields) {
  // arrival_s, gpu, cpu, ram, gpu_alt, cpu_alt, ram_alt, duration_s.
  for (int column : {1, 4, 5, 6, 7, 8, 9, 10}) {
    for (const char* value : {"nan", "inf", "-inf"}) {
      EXPECT_FALSE(Trace::FromCsv(CsvWithField(column, value), "x").has_value())
          << "column " << column << " = " << value;
    }
  }
}

TEST(TraceCsvTest, RejectsNegativeDemands) {
  for (int column : {4, 5, 6, 7, 8, 9}) {
    EXPECT_FALSE(Trace::FromCsv(CsvWithField(column, "-0.5"), "x").has_value())
        << "column " << column;
  }
}

// A two-job trace's CSV with the given ids and arrival times.
std::string TwoJobCsv(JobId first_id, SimTime first_arrival, JobId second_id,
                      SimTime second_arrival) {
  Trace trace;
  trace.name = "two";
  trace.jobs.push_back(JobSpec::FromWorkload(first_id, first_arrival, 0, 3600.0, 1));
  trace.jobs.push_back(JobSpec::FromWorkload(second_id, second_arrival, 0, 3600.0, 1));
  return trace.ToCsv();
}

TEST(TraceCsvTest, RejectsDuplicateJobIds) {
  EXPECT_TRUE(Trace::FromCsv(TwoJobCsv(0, 10.0, 1, 20.0), "x").has_value());
  EXPECT_FALSE(Trace::FromCsv(TwoJobCsv(3, 10.0, 3, 20.0), "x").has_value());
}

TEST(TraceCsvTest, RejectsDecreasingOrNegativeArrivals) {
  // Equal arrival times are fine; a decrease or a negative time is not.
  EXPECT_TRUE(Trace::FromCsv(TwoJobCsv(0, 10.0, 1, 10.0), "x").has_value());
  EXPECT_FALSE(Trace::FromCsv(TwoJobCsv(0, 20.0, 1, 10.0), "x").has_value());
  EXPECT_FALSE(Trace::FromCsv(CsvWithField(1, "-1"), "x").has_value());
}

// --- ScaleTrace property tests (the 10k/50k/100k bench scaler) ----------

Trace ScalerSource() {
  AlibabaTraceOptions options;
  options.num_jobs = 2000;
  options.seed = 17;
  options.max_duration_hours = 48.0;
  return GenerateAlibabaTrace(options);
}

TEST(ScaleTraceTest, SeededDeterminism) {
  const Trace source = ScalerSource();
  TraceScaleOptions options;
  options.target_jobs = 5000;
  options.seed = 9;
  const Trace a = ScaleTrace(source, options);
  const Trace b = ScaleTrace(source, options);
  ASSERT_EQ(a.jobs.size(), b.jobs.size());
  for (std::size_t i = 0; i < a.jobs.size(); ++i) {
    EXPECT_EQ(a.jobs[i].id, b.jobs[i].id);
    EXPECT_EQ(a.jobs[i].arrival_time_s, b.jobs[i].arrival_time_s);
    EXPECT_EQ(a.jobs[i].workload, b.jobs[i].workload);
    EXPECT_EQ(a.jobs[i].duration_s, b.jobs[i].duration_s);
    EXPECT_EQ(a.jobs[i].demand_p3, b.jobs[i].demand_p3);
  }
  options.seed = 10;
  const Trace c = ScaleTrace(source, options);
  bool any_difference = false;
  for (std::size_t i = 0; i < c.jobs.size() && !any_difference; ++i) {
    any_difference = c.jobs[i].arrival_time_s != a.jobs[i].arrival_time_s;
  }
  EXPECT_TRUE(any_difference);
}

TEST(ScaleTraceTest, PlanDerivationMatchesDirectScale) {
  // ScaleTraceFromPlan(MakeResamplePlan(s), o) is the hoisted form
  // MakeTenantShards fans out over; it must equal ScaleTrace(s, o)
  // bit-for-bit, including the thinning + rate_multiplier shapes the
  // federation recipe uses.
  const Trace source = ScalerSource();
  const TraceResamplePlan plan = MakeResamplePlan(source);
  for (const double rate_multiplier : {1.0, 40.0}) {
    TraceScaleOptions options;
    options.target_jobs = 50;
    options.seed = 123;
    options.rate_multiplier = rate_multiplier;
    const Trace direct = ScaleTrace(source, options);
    const Trace planned = ScaleTraceFromPlan(plan, options);
    EXPECT_EQ(direct.name, planned.name);
    ASSERT_EQ(direct.jobs.size(), planned.jobs.size());
    for (std::size_t i = 0; i < direct.jobs.size(); ++i) {
      EXPECT_EQ(direct.jobs[i].id, planned.jobs[i].id);
      EXPECT_EQ(direct.jobs[i].arrival_time_s, planned.jobs[i].arrival_time_s);
      EXPECT_EQ(direct.jobs[i].workload, planned.jobs[i].workload);
      EXPECT_EQ(direct.jobs[i].num_tasks, planned.jobs[i].num_tasks);
      EXPECT_EQ(direct.jobs[i].duration_s, planned.jobs[i].duration_s);
      EXPECT_EQ(direct.jobs[i].demand_p3, planned.jobs[i].demand_p3);
    }
  }
}

TEST(ScaleTraceTest, MonotoneArrivalsAndSequentialIds) {
  const Trace source = ScalerSource();
  TraceScaleOptions options;
  options.target_jobs = 10000;
  const Trace scaled = ScaleTrace(source, options);
  ASSERT_EQ(scaled.jobs.size(), 10000u);
  for (std::size_t i = 0; i < scaled.jobs.size(); ++i) {
    EXPECT_EQ(scaled.jobs[i].id, static_cast<JobId>(i));
    EXPECT_GE(scaled.jobs[i].arrival_time_s, 0.0);
    if (i > 0) {
      EXPECT_GE(scaled.jobs[i].arrival_time_s, scaled.jobs[i - 1].arrival_time_s);
    }
  }
}

TEST(ScaleTraceTest, JobMixMarginalsMatchSource) {
  const Trace source = ScalerSource();
  TraceScaleOptions options;
  options.target_jobs = 20000;
  options.seed = 3;
  const Trace scaled = ScaleTrace(source, options);

  const auto gpu_fraction = [](const Trace& trace) {
    int gpu = 0;
    for (const JobSpec& job : trace.jobs) {
      gpu += job.demand_p3.gpus() > 0.0 ? 1 : 0;
    }
    return static_cast<double>(gpu) / static_cast<double>(trace.jobs.size());
  };
  const auto mean_duration_h = [](const Trace& trace) {
    double sum = 0.0;
    for (const JobSpec& job : trace.jobs) {
      sum += SecondsToHours(job.duration_s);
    }
    return sum / static_cast<double>(trace.jobs.size());
  };
  const auto median_duration_h = [](const Trace& trace) {
    std::vector<double> d;
    d.reserve(trace.jobs.size());
    for (const JobSpec& job : trace.jobs) {
      d.push_back(job.duration_s);
    }
    std::sort(d.begin(), d.end());
    return SecondsToHours(d[d.size() / 2]);
  };

  // Resampling with replacement: marginals converge to the source's.
  EXPECT_NEAR(gpu_fraction(scaled), gpu_fraction(source), 0.02);
  EXPECT_NEAR(mean_duration_h(scaled) / mean_duration_h(source), 1.0, 0.10);
  EXPECT_NEAR(median_duration_h(scaled) / median_duration_h(source), 1.0, 0.15);
}

TEST(ScaleTraceTest, SuperpositionScalesArrivalRate) {
  const Trace source = ScalerSource();
  TraceScaleOptions options;
  options.target_jobs = 20000;
  const Trace scaled = ScaleTrace(source, options);
  // 10x the jobs over (statistically) the same span: the empirical rate
  // scales with the job count.
  const double source_rate =
      static_cast<double>(source.jobs.size()) / source.jobs.back().arrival_time_s;
  const double scaled_rate =
      static_cast<double>(scaled.jobs.size()) / scaled.jobs.back().arrival_time_s;
  EXPECT_NEAR(scaled_rate / source_rate, 10.0, 1.0);
}

TEST(ScaleTraceTest, EmptySourceAndZeroTargetAreSafe) {
  Trace empty;
  empty.name = "empty";
  TraceScaleOptions options;
  EXPECT_TRUE(ScaleTrace(empty, options).jobs.empty());
  options.target_jobs = 0;
  EXPECT_TRUE(ScaleTrace(ScalerSource(), options).jobs.empty());
}

TEST(TraceNormalizeTest, SortsAndReassignsIds) {
  Trace trace;
  trace.jobs.push_back(JobSpec::FromWorkload(7, 500.0, 0, 100.0));
  trace.jobs.push_back(JobSpec::FromWorkload(3, 100.0, 1, 100.0));
  trace.Normalize();
  EXPECT_EQ(trace.jobs[0].id, 0);
  EXPECT_DOUBLE_EQ(trace.jobs[0].arrival_time_s, 100.0);
  EXPECT_EQ(trace.jobs[1].id, 1);
}

}  // namespace
}  // namespace eva
