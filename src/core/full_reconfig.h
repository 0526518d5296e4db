// Full Reconfiguration — Algorithm 1 of the paper (§4.2), generalized to
// throughput-normalized reservation price (§4.3).
//
// The algorithm walks instance types in descending hourly cost. For each
// type it repeatedly opens a fresh instance and greedily fills it with the
// unassigned task maximizing the set's TNRP, stopping early if adding the
// best candidate would *decrease* the set TNRP (possible under severe
// interference or multi-task straggler penalties). The instance is kept only
// if the set's TNRP covers the instance's hourly cost; otherwise the
// algorithm moves on to the next cheaper type.

#ifndef SRC_CORE_FULL_RECONFIG_H_
#define SRC_CORE_FULL_RECONFIG_H_

#include <cstddef>
#include <vector>

#include "src/sched/reservation_price.h"
#include "src/sched/types.h"

namespace eva {

// Relative slack on the cost-efficiency test TNRP(T) >= C_k, avoiding
// spurious rejections from floating-point noise. Shared by the Full,
// Partial and incremental packs.
inline constexpr double kCostEfficiencyEpsilon = 1e-9;

struct PackingOptions {
  // The VSBPP heuristic's downsizing step: after a task set is accepted on
  // an instance type, switch to the cheapest type that still fits the set.
  // Never increases cost, so cost-efficiency is preserved.
  bool shrink_to_cheapest_type = true;
};

// Cursor-based appender over an existing ConfigInstance vector. Append()
// hands back a recycled slot (its tasks vector keeps capacity), Finish()
// trims slots not consumed this round. This is what lets the per-round
// packing write into persistent storage with zero steady-state allocations.
class ConfigAppender {
 public:
  explicit ConfigAppender(std::vector<ConfigInstance>& out) : out_(out) {}

  ConfigInstance& Append() {
    if (used_ < out_.size()) {
      ConfigInstance& slot = out_[used_++];
      slot.type_index = -1;
      slot.reuse_instance = kInvalidInstanceId;
      slot.tasks.clear();
      return slot;
    }
    out_.emplace_back();
    ++used_;
    return out_.back();
  }

  ConfigInstance& operator[](std::size_t i) { return out_[i]; }
  std::size_t used() const { return used_; }
  void Finish() { out_.resize(used_); }

 private:
  std::vector<ConfigInstance>& out_;
  std::size_t used_ = 0;
};

// Runs Algorithm 1 over `pool` (tasks to place; sorted in place). Emits the
// packed instances through `out` — instances carry no reuse ids; callers
// layering Partial Reconfiguration add them. A task the greedy could not
// place cost-efficiently goes alone on its reservation-price instance; one
// that fits no instance type is left out (pending).
// Precondition: every demand component is finite and non-negative (the
// trace loaders reject anything else). The argmax drops a candidate from an
// instance once it fails to fit, which is exact only because an instance's
// used capacity never shrinks as members join.
void PackByReservationPriceInto(const SchedulingContext& context,
                                const TnrpCalculator& calculator,
                                std::vector<const TaskInfo*>& pool,
                                const PackingOptions& options, ConfigAppender& out);

// The Full Reconfiguration entry point: packs *all* tasks in the context
// into `out`, reusing its storage (cleared semantically, capacity kept).
void FullReconfigurationInto(const SchedulingContext& context,
                             const TnrpCalculator& calculator,
                             const PackingOptions& options, ClusterConfig& out);

ClusterConfig FullReconfiguration(const SchedulingContext& context,
                                  const TnrpCalculator& calculator,
                                  const PackingOptions& options = {});

}  // namespace eva

#endif  // SRC_CORE_FULL_RECONFIG_H_
