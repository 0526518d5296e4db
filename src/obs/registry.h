// Telemetry registry: named counters, gauges, log2-bucket histograms and a
// virtual-time-bucketed time-series sampler behind one uniform, serialisable
// schema.
//
// This is the one funnel every subsystem's stats flow through on their way
// into bench JSON — `SchedulerCounters`, `FaultStats`, `SimulationMetrics`,
// `FederationStats` (their field lists, obs/stat_schema.h) and the
// per-round market/queue series the simulator samples. Names are dot-namespaced ("scheduler.packs_full",
// "faults.tasks_lost", "ts.queue_depth") and JSON export is sorted by name,
// so the schema a bench row emits is stable and diffable.
//
// Concurrency: a registry is SINGLE-WRITER. Simulators run their event
// loops serially, so a per-tenant registry needs no locks; the federation
// driver does not hand one registry to many tenants — it publishes the
// aggregate itself after every tenant finished. Time-series bucketing is in
// virtual time, so sampled series are deterministic across pool sizes.

#ifndef SRC_OBS_REGISTRY_H_
#define SRC_OBS_REGISTRY_H_

#include <cstdint>
#include <map>
#include <string>

namespace eva {

class TelemetryRegistry {
 public:
  // Power-of-two bucketed value distribution: bucket 0 counts values < 1,
  // bucket i >= 1 counts values in [2^(i-1), 2^i).
  class Histogram {
   public:
    void Record(std::int64_t value);
    std::int64_t count() const { return count_; }
    std::int64_t sum() const { return sum_; }
    std::int64_t min() const { return min_; }
    std::int64_t max() const { return max_; }
    // Count in log2 bucket `index` (0..63).
    std::int64_t bucket(int index) const;

   private:
    friend class TelemetryRegistry;
    std::int64_t count_ = 0;
    std::int64_t sum_ = 0;
    std::int64_t min_ = 0;
    std::int64_t max_ = 0;
    std::int64_t buckets_[64] = {};
  };

  // Fixed-width virtual-time buckets aggregating count/sum/min/max/last.
  // Bucketing by virtual time (not sample index) makes the series
  // comparable across runs whose event interleavings differ.
  class TimeSeries {
   public:
    void Sample(double t_s, double value);
    std::int64_t num_buckets() const {
      return static_cast<std::int64_t>(buckets_.size());
    }
    double bucket_width_s() const { return bucket_width_s_; }

   private:
    friend class TelemetryRegistry;
    struct Bucket {
      std::int64_t count = 0;
      double sum = 0.0;
      double min = 0.0;
      double max = 0.0;
      double last = 0.0;
    };
    double bucket_width_s_ = 3600.0;
    std::map<std::int64_t, Bucket> buckets_;
  };

  // Monotonic counter. Inc creates at zero on first touch.
  void Inc(const std::string& name, std::int64_t delta = 1);
  void SetCounter(const std::string& name, std::int64_t value);
  std::int64_t CounterValue(const std::string& name) const;

  void SetGauge(const std::string& name, double value);
  double GaugeValue(const std::string& name) const;

  Histogram& Hist(const std::string& name);

  // Returns the named series, creating it with the given bucket width on
  // first touch (the width is fixed thereafter).
  TimeSeries& Series(const std::string& name, double bucket_width_s = 3600.0);

  bool empty() const {
    return counters_.empty() && gauges_.empty() && histograms_.empty() &&
           series_.empty();
  }
  void Clear();

  // One JSON object, groups and names sorted, deterministic number
  // formatting: {"counters":{...},"gauges":{...},"histograms":{...},
  // "series":{...}} — empty groups omitted. This object is what bench rows
  // embed under their "telemetry" key.
  std::string ToJson() const;

 private:
  std::map<std::string, std::int64_t> counters_;
  std::map<std::string, double> gauges_;
  std::map<std::string, Histogram> histograms_;
  std::map<std::string, TimeSeries> series_;
};

}  // namespace eva

#endif  // SRC_OBS_REGISTRY_H_
