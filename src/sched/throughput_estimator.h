// Throughput estimation interfaces.
//
// ThroughputEstimator is the read-side abstraction schedulers use to reason
// about co-location interference. Two implementations exist:
//   * ThroughputTable — Eva's online-learned co-location throughput table
//     (§4.3/§4.4), owned by the ThroughputMonitor;
//   * OracleThroughput — a view over the ground-truth InterferenceModel,
//     granted to the Owl baseline (the paper provides Owl the full pairwise
//     profile, §6.1).

#ifndef SRC_SCHED_THROUGHPUT_ESTIMATOR_H_
#define SRC_SCHED_THROUGHPUT_ESTIMATOR_H_

#include <cstdint>
#include <map>
#include <optional>
#include <unordered_map>
#include <vector>

#include "src/workload/interference.h"
#include "src/workload/workload.h"

namespace eva {

class ThroughputEstimator {
 public:
  virtual ~ThroughputEstimator() = default;

  // Estimated normalized throughput of a task of workload `w` when
  // co-located with tasks of workloads `partners` (order irrelevant,
  // multiplicity matters). Must return 1.0 when partners is empty.
  virtual double Estimate(WorkloadId w, const std::vector<WorkloadId>& partners) const = 0;

  // Version counters memoizing consumers (TnrpCalculator's set-TNRP memo)
  // key their entries on. Version() must change whenever any estimate could
  // change; RowVersion(w) whenever an Estimate(w, ...) could change.
  // Immutable estimators (the oracle, a frozen profile) keep both at 0,
  // which marks cached values as valid forever.
  virtual std::uint64_t Version() const { return 0; }
  virtual std::uint64_t RowVersion(WorkloadId w) const {
    (void)w;
    return 0;
  }
};

// Eva's co-location throughput table (§4.3). Entries record the observed
// normalized throughput of a workload co-located with a multiset of partner
// workloads. Lookups fall back to the product of pairwise entries; unseen
// pairs use the optimistic default t (0.95 in all of the paper's
// experiments), which controls packing aggressiveness.
class ThroughputTable : public ThroughputEstimator {
 public:
  explicit ThroughputTable(double default_pairwise = 0.95);

  double Estimate(WorkloadId w, const std::vector<WorkloadId>& partners) const override;

  // Exact-entry access (partners are canonicalized internally). Record
  // returns true when the stored value actually changed — re-recording an
  // identical observation leaves the versions (and thus downstream set-TNRP
  // caches) untouched, which is what makes steady-state rounds cheap.
  std::optional<double> Lookup(WorkloadId w, const std::vector<WorkloadId>& partners) const;
  bool Record(WorkloadId w, std::vector<WorkloadId> partners, double throughput);

  std::uint64_t Version() const override { return version_; }
  std::uint64_t RowVersion(WorkloadId w) const override {
    // Flat array: memoizing consumers validate cache entries with one
    // RowVersion read per set member, so this must be O(1).
    const auto index = static_cast<std::size_t>(w);
    return w >= 0 && index < row_versions_.size() ? row_versions_[index] : 0;
  }

  double default_pairwise() const { return default_pairwise_; }
  std::size_t NumEntries() const {
    return pair_grid_count_ + pair_entries_.size() + exact_entries_.size();
  }

 private:
  // Pairwise entries — the hot path of Estimate's product loop — live in a
  // dense (w, partner) grid for the small workload-id universe (Table 7 has
  // ten workloads; NaN marks "unobserved"), with a packed-key hash map as
  // the fallback for out-of-range ids so arbitrary ids keep working. Larger
  // multisets (and the degenerate empty one) under a hashed (w, sorted
  // partners) key.
  struct MultisetKey {
    WorkloadId w = kInvalidWorkloadId;
    std::vector<WorkloadId> partners;  // Sorted.

    bool operator==(const MultisetKey& other) const {
      return w == other.w && partners == other.partners;
    }
  };
  struct MultisetKeyHash {
    std::size_t operator()(const MultisetKey& key) const;
  };

  // Ids above this stay in the hash fallback (the grid is dim^2 doubles).
  static constexpr int kMaxDenseId = 128;

  static std::uint64_t PairKey(WorkloadId w, WorkloadId partner) {
    return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(w)) << 32) |
           static_cast<std::uint32_t>(partner);
  }

  bool InGrid(WorkloadId w, WorkloadId partner) const {
    return w >= 0 && partner >= 0 && w < pair_dim_ && partner < pair_dim_;
  }

  const double* FindPair(WorkloadId w, WorkloadId partner) const;

  // Grows the dense grid to cover (w, partner) and returns the cell;
  // nullptr when either id is out of dense range.
  double* GridCellFor(WorkloadId w, WorkloadId partner);

  double default_pairwise_;
  std::vector<double> pair_grid_;  // pair_dim_ x pair_dim_, NaN = absent.
  WorkloadId pair_dim_ = 0;
  std::size_t pair_grid_count_ = 0;  // Non-NaN cells (for NumEntries).

  // Exact multiset entries per workload row: when a row has none (the
  // common case), Estimate/Lookup skip the sort + hash probe entirely —
  // the probe could only miss.
  std::vector<std::uint32_t> exact_rows_;
  bool MayHaveExact(WorkloadId w) const {
    if (w < 0) {
      return true;  // Unindexable id: probe conservatively.
    }
    const auto index = static_cast<std::size_t>(w);
    // Recording always grows exact_rows_ to cover the row, so an index past
    // the end proves the row has no exact entries.
    return index < exact_rows_.size() && exact_rows_[index] != 0;
  }
  std::unordered_map<std::uint64_t, double> pair_entries_;  // Sparse fallback.
  std::unordered_map<MultisetKey, double, MultisetKeyHash> exact_entries_;
  std::uint64_t version_ = 0;
  std::vector<std::uint64_t> row_versions_;  // Indexed by workload id.
};

// Ground-truth estimator backed by the interference model (product of true
// pairwise factors). The simulator also uses this to drive execution.
class OracleThroughput : public ThroughputEstimator {
 public:
  explicit OracleThroughput(const InterferenceModel* model) : model_(model) {}

  double Estimate(WorkloadId w, const std::vector<WorkloadId>& partners) const override;

 private:
  const InterferenceModel* model_;
};

}  // namespace eva

#endif  // SRC_SCHED_THROUGHPUT_ESTIMATOR_H_
