// Differential test of Algorithm 1: the production packing entry points
// (PackByReservationPriceInto, FullReconfiguration, PartialReconfiguration)
// against a reference written here from the paper's pseudocode, bit for bit
// on a few hundred seeded contexts.
//
// The reference is the plain form of the greedy: every argmax step scans
// the whole pool, skips assigned tasks and the members of the instance
// being filled (an explicit in-set flag), prices every fitting candidate,
// and prices a set as the sum of its members' TaskTnrp over a calculator
// constructed fresh for each context. The production side keeps one
// calculator across a scenario's rounds (Rebind, as EvaScheduler does)
// while the throughput table learns between rounds, so its set memo serves
// entries that the row versions must invalidate.
//
// Each scenario draws from the contexts that make the live-candidate scan
// and the memo deletion delicate: fractional Alibaba demands (same pricing
// class, different demands), candidates that stop fitting partway through
// an instance, multi-task jobs, non-unit family speedups, a tiered spot
// catalog and a throughput table with exact multi-partner entries (Learn
// records those every round). The coverage counters at the end check that
// the draw really hit the others.

#include <gtest/gtest.h>

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "src/cloud/provider.h"
#include "src/common/rng.h"
#include "src/core/full_reconfig.h"
#include "src/core/partial_reconfig.h"
#include "src/workload/trace_gen.h"

namespace eva {
namespace {

constexpr int kScenarios = 100;
constexpr int kRoundsPerScenario = 3;

// How often the draw hit each delicate case: contexts that hold it, or for
// `stopped_fitting`, reference argmax visits that saw it.
struct Coverage {
  int contexts = 0;
  int stopped_fitting = 0;     // A candidate that fit an instance stopped fitting.
  int same_class_demands = 0;  // One pricing class at different demands.
  int multi_task = 0;
  int speedups = 0;            // A task with a non-unit family speedup.
  int spot = 0;                // A tiered catalog.
};

// Sum of the members' TNRP, each priced against the members at every other
// position, folded in member order.
Money ReferenceSetTnrp(const TnrpCalculator& calculator,
                       const std::vector<const TaskInfo*>& members,
                       InstanceFamily family) {
  Money total = 0.0;
  for (std::size_t i = 0; i < members.size(); ++i) {
    std::vector<const TaskInfo*> partners;
    for (std::size_t j = 0; j < members.size(); ++j) {
      if (j != i) {
        partners.push_back(members[j]);
      }
    }
    total += calculator.TaskTnrp(*members[i], partners, family);
  }
  return total;
}

bool FitsWith(const TaskInfo& task, const InstanceType& type, const ResourceVector& used) {
  return (used + task.DemandFor(type.family)).FitsWithin(type.capacity);
}

// Algorithm 1 with the downsizing step and the standalone safety net, as
// PackByReservationPriceInto documents them.
void ReferencePack(const SchedulingContext& context, const TnrpCalculator& calculator,
                   std::vector<const TaskInfo*> pool, const PackingOptions& options,
                   std::vector<ConfigInstance>& out, Coverage& coverage) {
  SortTasksByRpDesc(calculator, pool);
  std::vector<bool> assigned(pool.size(), false);
  const std::size_t pack_begin = out.size();
  for (int type_index : context.catalog->IndicesByDescendingCost()) {
    const InstanceType& type = context.catalog->Get(type_index);
    while (true) {
      std::vector<bool> in_set(pool.size(), false);
      std::vector<bool> ever_fit(pool.size(), false);
      std::vector<const TaskInfo*> members;
      std::vector<std::size_t> indices;
      ResourceVector used;
      Money set_tnrp = 0.0;
      while (true) {
        int best = -1;
        Money best_tnrp = 0.0;
        for (std::size_t i = 0; i < pool.size(); ++i) {
          if (assigned[i] || in_set[i]) {
            continue;
          }
          if (!FitsWith(*pool[i], type, used)) {
            coverage.stopped_fitting += ever_fit[i] ? 1 : 0;
            ever_fit[i] = false;
            continue;
          }
          ever_fit[i] = true;
          std::vector<const TaskInfo*> joined = members;
          joined.push_back(pool[i]);
          const Money tnrp = ReferenceSetTnrp(calculator, joined, type.family);
          if (best < 0 || tnrp > best_tnrp) {
            best = static_cast<int>(i);
            best_tnrp = tnrp;
          }
        }
        if (best < 0 || (!members.empty() && best_tnrp < set_tnrp)) {
          break;
        }
        const auto chosen = static_cast<std::size_t>(best);
        members.push_back(pool[chosen]);
        indices.push_back(chosen);
        in_set[chosen] = true;
        used += pool[chosen]->DemandFor(type.family);
        set_tnrp = best_tnrp;
      }
      if (members.empty() ||
          set_tnrp + kCostEfficiencyEpsilon * type.cost_per_hour < type.cost_per_hour) {
        break;
      }
      ConfigInstance instance;
      instance.type_index = type_index;
      for (std::size_t index : indices) {
        instance.tasks.push_back(pool[index]->id);
        assigned[index] = true;
      }
      out.push_back(instance);
    }
  }
  if (options.shrink_to_cheapest_type) {
    for (std::size_t index = pack_begin; index < out.size(); ++index) {
      std::vector<const TaskInfo*> members;
      for (TaskId id : out[index].tasks) {
        members.push_back(context.FindTask(id));
      }
      int best_type = out[index].type_index;
      const InstanceType& current = context.catalog->Get(best_type);
      Money best_net =
          ReferenceSetTnrp(calculator, members, current.family) - current.cost_per_hour;
      for (int k = 0; k < context.catalog->NumTypes(); ++k) {
        const InstanceType& type = context.catalog->Get(k);
        ResourceVector total;
        for (const TaskInfo* member : members) {
          total += member->DemandFor(type.family);
        }
        if (!total.FitsWithin(type.capacity)) {
          continue;
        }
        const Money net = ReferenceSetTnrp(calculator, members, type.family) - type.cost_per_hour;
        if (net > best_net + 1e-12) {
          best_net = net;
          best_type = k;
        }
      }
      out[index].type_index = best_type;
    }
  }
  for (std::size_t i = 0; i < pool.size(); ++i) {
    if (assigned[i]) {
      continue;
    }
    const std::optional<int> type_index = context.catalog->CheapestFitting(
        [task = pool[i]](InstanceFamily family) { return task->DemandFor(family); });
    if (!type_index.has_value()) {
      continue;
    }
    ConfigInstance instance;
    instance.type_index = *type_index;
    instance.tasks.push_back(pool[i]->id);
    out.push_back(instance);
  }
}

ClusterConfig ReferencePartial(const SchedulingContext& context,
                               const TnrpCalculator& calculator, Coverage& coverage) {
  ClusterConfig config;
  std::vector<const TaskInfo*> pool;
  for (const TaskInfo& task : context.tasks) {
    if (task.current_instance == kInvalidInstanceId) {
      pool.push_back(&task);
    }
  }
  for (const InstanceInfo& instance : context.instances) {
    std::vector<const TaskInfo*> members;
    for (TaskId id : instance.tasks) {
      if (const TaskInfo* task = context.FindTask(id)) {
        members.push_back(task);
      }
    }
    const InstanceType& type = context.catalog->Get(instance.type_index);
    if (!members.empty() &&
        ReferenceSetTnrp(calculator, members, type.family) +
                kCostEfficiencyEpsilon * type.cost_per_hour >=
            type.cost_per_hour) {
      ConfigInstance kept;
      kept.type_index = instance.type_index;
      kept.reuse_instance = instance.id;
      kept.tasks = instance.tasks;
      config.instances.push_back(kept);
    } else {
      pool.insert(pool.end(), members.begin(), members.end());
    }
  }
  ReferencePack(context, calculator, pool, {}, config.instances, coverage);
  return config;
}

// "type/reuse:id,id;..." — every field of every instance, in order.
std::string Describe(const std::vector<ConfigInstance>& instances) {
  std::string out;
  for (const ConfigInstance& instance : instances) {
    out += std::to_string(instance.type_index) + "/" +
           std::to_string(instance.reuse_instance) + ":";
    for (TaskId id : instance.tasks) {
      out += std::to_string(id) + ",";
    }
    out += ";";
  }
  return out;
}

// One seeded scenario: a fixed task universe (ids stay stable identities,
// as Rebind requires), a catalog, a learned throughput table, and the
// calculator options.
struct Scenario {
  std::vector<TaskInfo> tasks;
  int num_jobs = 0;
  std::unique_ptr<CloudProvider> provider;  // Set when the catalog is tiered.
  InstanceCatalog base = InstanceCatalog::AwsDefault();
  ThroughputTable table{0.95};
  TnrpCalculator::Options options;
};

void BuildScenario(std::uint64_t seed, Scenario& scenario) {
  Rng rng(seed);
  AlibabaTraceOptions trace_options;
  trace_options.num_jobs = 12 + static_cast<int>(rng.NextU64() % 30);
  trace_options.seed = seed;
  Trace trace = GenerateAlibabaTrace(trace_options);
  if (seed % 3 == 0) {
    trace = WithMultiTaskFraction(std::move(trace), 0.4, seed);
  }
  const bool speedups = seed % 4 != 1;
  constexpr double kSpeedups[] = {0.8, 1.0, 1.25, 1.5};
  scenario.num_jobs = static_cast<int>(trace.jobs.size());
  for (const JobSpec& job : trace.jobs) {
    std::array<double, kNumInstanceFamilies> speedup = job.family_speedup;
    if (speedups && rng.NextU64() % 3 == 0) {
      for (double& value : speedup) {
        value = kSpeedups[rng.NextU64() % 4];
      }
    }
    for (int t = 0; t < job.num_tasks; ++t) {
      TaskInfo task;
      task.id = static_cast<TaskId>(scenario.tasks.size());
      task.job = job.id;
      task.workload = job.workload;
      task.demand_p3 = job.demand_p3;
      task.demand_cpu = job.demand_cpu;
      task.family_speedup = speedup;
      scenario.tasks.push_back(task);
    }
  }
  if (seed % 2 == 0) {
    CloudProviderOptions provider_options;
    provider_options.enabled = true;
    provider_options.spot.enabled = true;
    provider_options.spot.seed = seed;
    scenario.provider = std::make_unique<CloudProvider>(scenario.base, provider_options);
  }
  scenario.options.multi_task_aware = seed % 5 != 2;
  scenario.options.interference_aware = seed % 11 != 4;
}

// Records a few pairwise and exact multi-partner entries over the
// scenario's workloads: the learning that happens between rounds.
void Learn(Rng& rng, const Scenario& scenario, ThroughputTable& table) {
  const auto workload = [&] {
    return scenario.tasks[rng.NextU64() % scenario.tasks.size()].workload;
  };
  for (int i = 0; i < 4; ++i) {
    table.Record(workload(), {workload()}, rng.Uniform(0.5, 1.0));
  }
  for (int i = 0; i < 3; ++i) {
    table.Record(workload(), {workload(), workload()}, rng.Uniform(0.4, 0.9));
  }
  table.Record(workload(), {workload(), workload(), workload()}, rng.Uniform(0.3, 0.8));
}

void TallyContext(const SchedulingContext& context, const Scenario& scenario,
                  const TnrpCalculator& calculator, Coverage& coverage) {
  bool multi_task = false;
  bool speedups = false;
  bool same_class_demands = false;
  for (std::size_t i = 0; i < context.tasks.size(); ++i) {
    const TaskInfo& a = context.tasks[i];
    multi_task = multi_task || context.JobSize(a.job) > 1;
    for (double speedup : a.family_speedup) {
      speedups = speedups || speedup != 1.0;
    }
    for (std::size_t j = i + 1; j < context.tasks.size(); ++j) {
      const TaskInfo& b = context.tasks[j];
      same_class_demands =
          same_class_demands || (calculator.PricingClass(a) == calculator.PricingClass(b) &&
                                 !(a.demand_p3 == b.demand_p3 && a.demand_cpu == b.demand_cpu));
    }
  }
  ++coverage.contexts;
  coverage.multi_task += multi_task ? 1 : 0;
  coverage.speedups += speedups ? 1 : 0;
  coverage.same_class_demands += same_class_demands ? 1 : 0;
  coverage.spot += context.catalog->NumTypes() > scenario.base.NumTypes() ? 1 : 0;
}

TEST(PackingDifferentialTest, MatchesReferenceAlgorithmOneBitForBit) {
  Coverage coverage;
  for (int s = 0; s < kScenarios; ++s) {
    const auto seed = static_cast<std::uint64_t>(1000 + s);
    Scenario scenario;
    BuildScenario(seed, scenario);
    Rng rng(seed * 7919);
    Learn(rng, scenario, scenario.table);

    // Round r holds the jobs that arrived by then minus a few completed
    // ones; tasks placed in round r-1 stay on their instances.
    std::unique_ptr<TnrpCalculator> production;
    std::vector<std::shared_ptr<const InstanceCatalog>> catalogs;
    std::vector<std::unique_ptr<SchedulingContext>> contexts;
    std::vector<InstanceId> host(scenario.tasks.size(), kInvalidInstanceId);
    std::vector<bool> completed(static_cast<std::size_t>(scenario.num_jobs), false);
    ClusterConfig previous;
    for (int round = 0; round < kRoundsPerScenario; ++round) {
      const InstanceCatalog* catalog = &scenario.base;
      if (scenario.provider != nullptr) {
        catalogs.push_back(scenario.provider->SharedQuoteCatalog(
            /*now=*/3600.0 * (round + 1) * static_cast<double>(seed % 7 + 1),
            /*risk_premium=*/0.1 * static_cast<double>(round)));
        catalog = catalogs.back().get();
      }
      const int arrived = scenario.num_jobs * (round + 2) / (kRoundsPerScenario + 1);
      if (round > 0) {
        completed[rng.NextU64() % static_cast<std::uint64_t>(arrived)] = true;
        completed[rng.NextU64() % static_cast<std::uint64_t>(arrived)] = true;
        Learn(rng, scenario, scenario.table);
      }
      contexts.push_back(std::make_unique<SchedulingContext>());
      SchedulingContext& context = *contexts.back();
      context.catalog = catalog;
      context.throughput = &scenario.table;
      for (std::size_t i = 0; i < previous.instances.size(); ++i) {
        InstanceInfo live;
        live.id = static_cast<InstanceId>(100 * round + static_cast<int>(i));
        live.type_index = previous.instances[i].type_index;
        for (TaskId id : previous.instances[i].tasks) {
          const TaskInfo& task = scenario.tasks[static_cast<std::size_t>(id)];
          if (!completed[static_cast<std::size_t>(task.job)]) {
            live.tasks.push_back(id);
            host[static_cast<std::size_t>(id)] = live.id;
          }
        }
        if (!live.tasks.empty() && live.type_index < catalog->NumTypes()) {
          context.instances.push_back(live);
        } else {
          for (TaskId id : live.tasks) {
            host[static_cast<std::size_t>(id)] = kInvalidInstanceId;
          }
        }
      }
      for (const TaskInfo& task : scenario.tasks) {
        if (task.job < arrived && !completed[static_cast<std::size_t>(task.job)]) {
          TaskInfo live = task;
          live.current_instance = host[static_cast<std::size_t>(task.id)];
          context.tasks.push_back(live);
        }
      }
      context.Finalize();
      if (context.tasks.empty()) {
        continue;
      }
      if (production == nullptr) {
        production = std::make_unique<TnrpCalculator>(context, scenario.options);
      } else {
        production->Rebind(context);
      }
      const TnrpCalculator reference(context, scenario.options);
      const std::string where =
          "seed " + std::to_string(seed) + " round " + std::to_string(round);
      TallyContext(context, scenario, reference, coverage);

      // The bare pack, over the whole context in a shuffled order, with the
      // downsizing step on and off.
      std::vector<const TaskInfo*> pool;
      for (const TaskInfo& task : context.tasks) {
        pool.push_back(&task);
      }
      for (std::size_t i = pool.size(); i > 1; --i) {
        std::swap(pool[i - 1], pool[rng.NextU64() % i]);
      }
      for (const PackingOptions& options : {PackingOptions{}, PackingOptions{false}}) {
        std::vector<const TaskInfo*> pool_copy = pool;  // The packer sorts its pool.
        std::vector<ConfigInstance> packed;
        ConfigAppender appender(packed);
        PackByReservationPriceInto(context, *production, pool_copy, options, appender);
        appender.Finish();
        std::vector<ConfigInstance> expected;
        ReferencePack(context, reference, pool, options, expected, coverage);
        ASSERT_EQ(Describe(packed), Describe(expected)) << where;
      }

      const ClusterConfig full = FullReconfiguration(context, *production);
      std::vector<ConfigInstance> expected_full;
      ReferencePack(context, reference, pool, {}, expected_full, coverage);
      ASSERT_EQ(Describe(full.instances), Describe(expected_full)) << where;

      const ClusterConfig partial = PartialReconfiguration(context, *production);
      ASSERT_EQ(Describe(partial.instances),
                Describe(ReferencePartial(context, reference, coverage).instances))
          << where;
      previous = round % 2 == 0 ? full : partial;
    }
  }
  EXPECT_GE(coverage.contexts, 2 * kScenarios);
  EXPECT_GT(coverage.stopped_fitting, 0);
  EXPECT_GT(coverage.same_class_demands, 0);
  EXPECT_GT(coverage.multi_task, 0);
  EXPECT_GT(coverage.speedups, 0);
  EXPECT_GT(coverage.spot, 0);
}

}  // namespace
}  // namespace eva
