#include "src/solver/bnb_solver.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <utility>
#include <vector>

#include "src/core/full_reconfig.h"
#include "src/sched/reservation_price.h"

namespace eva {
namespace {

using Clock = std::chrono::steady_clock;

constexpr Money kCostEps = 1e-12;

// Cheapest per-unit price of each resource across the catalog, using the
// capacity on the family where it is largest relative to cost.
std::array<double, kNumResources> UnitPrices(const InstanceCatalog& catalog) {
  std::array<double, kNumResources> unit{};
  for (int r = 0; r < kNumResources; ++r) {
    double best = std::numeric_limits<double>::infinity();
    for (const InstanceType& type : catalog.types()) {
      const double capacity = type.capacity.Get(static_cast<Resource>(r));
      if (capacity > 0.0) {
        best = std::min(best, type.cost_per_hour / capacity);
      }
    }
    unit[static_cast<std::size_t>(r)] = std::isfinite(best) ? best : 0.0;
  }
  return unit;
}

// Minimum resource consumption of a task across families (a task will
// consume at least this much of r wherever it is placed).
ResourceVector MinDemand(const TaskInfo& task) {
  ResourceVector demand = task.demand_p3;
  for (int r = 0; r < kNumResources; ++r) {
    const Resource res = static_cast<Resource>(r);
    demand.Set(res, std::min(task.demand_p3.Get(res), task.demand_cpu.Get(res)));
  }
  return demand;
}

struct OpenInstance {
  int type_index;
  ResourceVector used;
  std::vector<TaskId> tasks;

  bool operator==(const OpenInstance& other) const {
    return type_index == other.type_index && used == other.used && tasks == other.tasks;
  }
};

// Stack of open instances whose Pop() keeps the slot — and its tasks
// vector's capacity — alive for the next Push() at the same depth. The DFS
// pushes/pops an instance per fresh-open node; with a plain vector that was
// a heap allocation and free per node.
class OpenList {
 public:
  std::size_t size() const { return size_; }
  const OpenInstance& operator[](std::size_t i) const { return items_[i]; }
  OpenInstance& operator[](std::size_t i) { return items_[i]; }
  const OpenInstance* begin() const { return items_.data(); }
  const OpenInstance* end() const { return items_.data() + size_; }

  OpenInstance& Push() {
    if (size_ == items_.size()) {
      items_.emplace_back();
    }
    OpenInstance& slot = items_[size_++];
    slot.type_index = -1;
    slot.used = ResourceVector();
    slot.tasks.clear();
    return slot;
  }
  void Pop() { --size_; }

 private:
  std::vector<OpenInstance> items_;
  std::size_t size_ = 0;
};

// Immutable per-solve data: branch order, suffix bounds, limits.
struct Problem {
  Problem(const SchedulingContext& context, const SolverOptions& options)
      : context(context), options(options), unit_prices(UnitPrices(*context.catalog)) {
    for (const TaskInfo& task : context.tasks) {
      tasks.push_back(&task);
    }
    // Branch on the "hardest" tasks first: descending reservation price.
    const TnrpCalculator calculator(context, {.interference_aware = false});
    SortTasksByRpDesc(calculator, tasks);
    // Per-resource suffix volumes of tasks[i..). The node-level bound
    // (SuffixBound below) first credits the slack already paid for in open
    // instances against these volumes: a plain volume-times-unit-price
    // suffix bound is NOT sound as an additive bound on the *remaining*
    // cost, because remaining tasks may ride along in open instances for
    // free — the original collapsed bound pruned genuinely optimal
    // branches (and reported "proven optimal" for non-optimal incumbents).
    suffix_volume.assign(tasks.size() + 1, {});
    std::array<double, kNumResources> volume{};
    for (std::size_t i = tasks.size(); i-- > 0;) {
      const ResourceVector demand = MinDemand(*tasks[i]);
      for (int r = 0; r < kNumResources; ++r) {
        volume[static_cast<std::size_t>(r)] += demand.Get(static_cast<Resource>(r));
      }
      suffix_volume[i] = volume;
    }
    // Per-task fitting instance types, cheapest-first — a pure function of
    // (task demands, catalog), so computing it once per solve instead of
    // once per node removes the search's dominant per-node allocation and
    // sort. Same comparator over the same input: identical order.
    fitting_by_task.resize(tasks.size());
    for (std::size_t i = 0; i < tasks.size(); ++i) {
      std::vector<int>& fitting = fitting_by_task[i];
      for (int k = 0; k < context.catalog->NumTypes(); ++k) {
        const InstanceType& type = context.catalog->Get(k);
        if (tasks[i]->DemandFor(type.family).FitsWithin(type.capacity)) {
          fitting.push_back(k);
        }
      }
      std::sort(fitting.begin(), fitting.end(), [&context](int a, int b) {
        return context.catalog->Get(a).cost_per_hour <
               context.catalog->Get(b).cost_per_hour;
      });
    }
  }

  // Sound lower bound on the cost of hosting tasks[next_task..) given the
  // instances already open (their unused capacity is free).
  Money SuffixBound(std::size_t next_task, const OpenList& open) const {
    std::array<double, kNumResources> residual = suffix_volume[next_task];
    for (const OpenInstance& instance : open) {
      const ResourceVector& capacity = context.catalog->Get(instance.type_index).capacity;
      for (int r = 0; r < kNumResources; ++r) {
        residual[static_cast<std::size_t>(r)] -=
            capacity.Get(static_cast<Resource>(r)) -
            instance.used.Get(static_cast<Resource>(r));
      }
    }
    Money bound = 0.0;
    for (int r = 0; r < kNumResources; ++r) {
      if (residual[static_cast<std::size_t>(r)] > 0.0) {
        bound = std::max(bound, residual[static_cast<std::size_t>(r)] *
                                    unit_prices[static_cast<std::size_t>(r)]);
      }
    }
    return bound;
  }

  const SchedulingContext& context;
  const SolverOptions& options;
  std::array<double, kNumResources> unit_prices;
  std::vector<const TaskInfo*> tasks;
  std::vector<std::array<double, kNumResources>> suffix_volume;
  std::vector<std::vector<int>> fitting_by_task;
};

// One branching choice for a task: place it into open[open_index]
// (fresh == false) or open a new instance of type_index (fresh == true,
// adding cost_delta).
struct Choice {
  bool fresh = false;
  std::size_t open_index = 0;
  int type_index = -1;
  Money cost_delta = 0.0;
};

// Enumerates a node's children in DFS order: existing open instances first
// (skipping symmetric (type, used) duplicates), then fresh instances of each
// fitting type cheapest-first (precomputed per task in Problem), cut where
// `cost_bound` proves a fresh open cannot improve. The caller re-checks
// fresh choices against the live (possibly tighter) incumbent.
void EnumerateChoices(const Problem& problem, std::size_t next_task, const OpenList& open,
                      Money cost_so_far, Money cost_bound, std::vector<Choice>& out) {
  const TaskInfo& task = *problem.tasks[next_task];
  out.clear();
  for (std::size_t i = 0; i < open.size(); ++i) {
    bool duplicate = false;
    for (std::size_t j = 0; j < i; ++j) {
      if (open[j].type_index == open[i].type_index && open[j].used == open[i].used) {
        duplicate = true;
        break;
      }
    }
    if (duplicate) {
      continue;
    }
    const InstanceType& type = problem.context.catalog->Get(open[i].type_index);
    if (!(open[i].used + task.DemandFor(type.family)).FitsWithin(type.capacity)) {
      continue;
    }
    Choice choice;
    choice.open_index = i;
    out.push_back(choice);
  }
  for (int type_index : problem.fitting_by_task[next_task]) {
    const InstanceType& type = problem.context.catalog->Get(type_index);
    if (cost_so_far + type.cost_per_hour >= cost_bound - kCostEps) {
      break;  // Sorted ascending; all later types cost at least as much.
    }
    Choice choice;
    choice.fresh = true;
    choice.type_index = type_index;
    choice.cost_delta = type.cost_per_hour;
    out.push_back(choice);
  }
}

// The depth-first search. The incumbent starts as the heuristic seed (or
// empty at +inf cost) and is replaced only on strict improvement, so among
// equal-cost packings the first one in DFS order wins.
class Search {
 public:
  Search(const Problem& problem, Clock::time_point start)
      : problem_(problem), start_(start), choices_by_depth_(problem.tasks.size()) {}

  void SetIncumbent(ClusterConfig config, Money cost) {
    incumbent_ = std::move(config);
    incumbent_cost_ = cost;
  }

  void Run() {
    OpenList open;
    Branch(0, 0.0, open);
  }

  const ClusterConfig& incumbent() const { return incumbent_; }
  Money incumbent_cost() const { return incumbent_cost_; }
  bool aborted() const { return aborted_; }
  std::uint64_t nodes() const { return nodes_; }

 private:
  bool TimeExceeded() {
    if (aborted_) {
      return true;
    }
    if (nodes_ > problem_.options.max_nodes) {
      aborted_ = true;
      return true;
    }
    // Check the wall clock every 4096 nodes to keep overhead negligible.
    if ((nodes_ & 0xFFF) == 0 &&
        std::chrono::duration<double>(Clock::now() - start_).count() >
            problem_.options.time_limit_seconds) {
      aborted_ = true;
      return true;
    }
    return false;
  }

  void Branch(std::size_t next_task, Money cost_so_far, OpenList& open) {
    ++nodes_;
    if (TimeExceeded()) {
      return;
    }
    if (next_task == problem_.tasks.size()) {
      if (cost_so_far < incumbent_cost_ - kCostEps) {
        incumbent_cost_ = cost_so_far;
        incumbent_.instances.clear();
        for (const OpenInstance& instance : open) {
          ConfigInstance entry;
          entry.type_index = instance.type_index;
          entry.tasks = instance.tasks;
          incumbent_.instances.push_back(std::move(entry));
        }
      }
      return;
    }
    if (cost_so_far + problem_.SuffixBound(next_task, open) >= incumbent_cost_ - kCostEps) {
      return;  // Prune: even a fractional relaxation cannot beat incumbent.
    }
    const TaskInfo& task = *problem_.tasks[next_task];

    // Each depth owns one choice list: the recursion below only touches
    // deeper depths' lists, so this one stays intact while it is iterated
    // and keeps its capacity for the next node at this depth.
    std::vector<Choice>& choices = choices_by_depth_[next_task];
    EnumerateChoices(problem_, next_task, open, cost_so_far, incumbent_cost_, choices);
    for (const Choice& choice : choices) {
      if (choice.fresh) {
        // Re-check against the live incumbent: deeper subtrees of this very
        // node may have tightened it past the bound EnumerateChoices used.
        if (cost_so_far + choice.cost_delta >= incumbent_cost_ - kCostEps) {
          break;  // Fresh choices are cheapest-first; the rest cost more.
        }
        const InstanceType& type = problem_.context.catalog->Get(choice.type_index);
        OpenInstance& fresh = open.Push();
        fresh.type_index = choice.type_index;
        fresh.used = task.DemandFor(type.family);
        fresh.tasks.push_back(task.id);
        Branch(next_task + 1, cost_so_far + choice.cost_delta, open);
        open.Pop();
      } else {
        // Deliberately no retained reference into `open`: the recursive call
        // pushes fresh instances and can reallocate the stack's storage, so
        // the host is re-indexed after it returns.
        const InstanceType& type =
            problem_.context.catalog->Get(open[choice.open_index].type_index);
        const ResourceVector demand = task.DemandFor(type.family);
        open[choice.open_index].used += demand;
        open[choice.open_index].tasks.push_back(task.id);
        Branch(next_task + 1, cost_so_far, open);
        open[choice.open_index].tasks.pop_back();
        open[choice.open_index].used -= demand;
      }
      if (aborted_) {
        return;
      }
    }
  }

  const Problem& problem_;
  Clock::time_point start_;
  std::vector<std::vector<Choice>> choices_by_depth_;

  ClusterConfig incumbent_;
  Money incumbent_cost_ = std::numeric_limits<double>::infinity();
  std::uint64_t nodes_ = 0;
  bool aborted_ = false;
};

}  // namespace

Money PackingLowerBound(const SchedulingContext& context,
                        const std::vector<const TaskInfo*>& tasks) {
  const std::array<double, kNumResources> unit = UnitPrices(*context.catalog);
  std::array<double, kNumResources> volume{};
  for (const TaskInfo* task : tasks) {
    const ResourceVector demand = MinDemand(*task);
    for (int r = 0; r < kNumResources; ++r) {
      volume[static_cast<std::size_t>(r)] += demand.Get(static_cast<Resource>(r));
    }
  }
  Money bound = 0.0;
  for (int r = 0; r < kNumResources; ++r) {
    bound = std::max(bound,
                     volume[static_cast<std::size_t>(r)] * unit[static_cast<std::size_t>(r)]);
  }
  return bound;
}

SolverResult SolveOptimalPacking(const SchedulingContext& context,
                                 const SolverOptions& options) {
  const Clock::time_point start = Clock::now();
  const Problem problem(context, options);
  Search search(problem, start);
  if (options.seed_with_heuristic) {
    const TnrpCalculator calculator(context, {.interference_aware = false});
    ClusterConfig seed = FullReconfiguration(context, calculator);
    const Money seed_cost = seed.HourlyCost(*context.catalog);
    search.SetIncumbent(std::move(seed), seed_cost);
  }
  search.Run();

  SolverResult result;
  result.config = search.incumbent();
  result.hourly_cost = search.incumbent_cost();
  result.proven_optimal = !search.aborted();
  result.nodes_explored = search.nodes();
  result.wall_seconds = std::chrono::duration<double>(Clock::now() - start).count();
  if (options.trace) {
    options.trace.recorder->Instant(
        options.trace.track, "bnb.solve", options.trace_now_s, "nodes",
        static_cast<double>(result.nodes_explored), "optimal",
        result.proven_optimal ? 1.0 : 0.0);
  }
  return result;
}

}  // namespace eva
