// Pins the exact output of the three packing entry points (Full, Partial
// and Incremental Reconfiguration) on small Alibaba-like contexts: every
// instance's type index and task ids, in order, and the configuration's
// hourly cost to the last bit. The contexts are built so that a pricing
// shortcut that merged tasks which price differently would move a pin:
//   * trace demands are fractional, so many tasks share a workload and an
//     RP while differing in demands;
//   * a learned throughput table holds recorded pairs and one
//     multi-partner entry;
//   * one context holds two tasks that differ only in family speedups.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "src/core/full_reconfig.h"
#include "src/core/incremental_reconfig.h"
#include "src/core/partial_reconfig.h"
#include "src/workload/trace_gen.h"

namespace eva {
namespace {

struct PinCase {
  const char* name;
  std::uint64_t seed;
  int num_jobs;
  double multi_task_fraction;
  bool with_table;
  bool speedup_twins;
  const char* full;
  const char* partial;
  const char* incremental;
};

// "type:id,id;type:id;...$cost" with the cost printed with %.17g.
std::string Digest(const ClusterConfig& config, const InstanceCatalog& catalog) {
  std::string out;
  for (const ConfigInstance& instance : config.instances) {
    out += std::to_string(instance.type_index) + ":";
    for (std::size_t i = 0; i < instance.tasks.size(); ++i) {
      out += (i == 0 ? "" : ",") + std::to_string(instance.tasks[i]);
    }
    out += ";";
  }
  char cost[32];
  std::snprintf(cost, sizeof(cost), "$%.17g", config.HourlyCost(catalog));
  return out + cost;
}

struct Digests {
  std::string full;
  std::string partial;
  std::string incremental;
  IncrementalOutcome outcome = IncrementalOutcome::kIncremental;
};

// Two rounds of one scheduler. The previous round holds every job but the
// last three and is placed by Full Reconfiguration on instances 1000, 1001,
// ...; the current round completes jobs 2 and 7 and admits the last three.
// One calculator spans both rounds (Rebind), as in EvaScheduler, and prices
// the three entry points in turn.
Digests RunCase(const PinCase& pin) {
  const InstanceCatalog catalog = InstanceCatalog::AwsDefault();
  AlibabaTraceOptions trace_options;
  trace_options.num_jobs = pin.num_jobs;
  trace_options.seed = pin.seed;
  Trace trace = GenerateAlibabaTrace(trace_options);
  if (pin.multi_task_fraction > 0.0) {
    trace = WithMultiTaskFraction(std::move(trace), pin.multi_task_fraction, pin.seed);
  }

  std::vector<TaskInfo> tasks;
  for (const JobSpec& job : trace.jobs) {
    for (int t = 0; t < job.num_tasks; ++t) {
      TaskInfo task;
      task.id = static_cast<TaskId>(tasks.size());
      task.job = job.id;
      task.workload = job.workload;
      task.demand_p3 = job.demand_p3;
      task.demand_cpu = job.demand_cpu;
      task.family_speedup = job.family_speedup;
      tasks.push_back(task);
    }
  }
  if (pin.speedup_twins) {
    // Two copies of the first CPU-only task as new single-task jobs; the
    // second runs 1.3x faster on P3, which leaves its RP (a C7i price)
    // unchanged but raises its TNRP on every P3 instance.
    for (const TaskInfo& source : tasks) {
      if (source.demand_p3.gpus() == 0.0) {
        TaskInfo twin = source;
        for (int copy = 0; copy < 2; ++copy) {
          twin.id = static_cast<TaskId>(tasks.size());
          twin.job = static_cast<JobId>(trace.jobs.size() + copy);
          twin.family_speedup[static_cast<std::size_t>(InstanceFamily::kP3)] =
              copy == 0 ? 1.0 : 1.3;
          tasks.push_back(twin);
        }
        break;
      }
    }
  }
  const JobId first_arrival = static_cast<JobId>(trace.jobs.size()) - 3;
  const auto arrived = [&](const TaskInfo& task) {
    return task.job >= first_arrival && task.job < static_cast<JobId>(trace.jobs.size());
  };
  const auto completed = [](const TaskInfo& task) { return task.job == 2 || task.job == 7; };

  ThroughputTable table(0.95);
  if (pin.with_table) {
    const WorkloadId a = tasks[0].workload;
    const WorkloadId b = tasks[1].workload;
    const WorkloadId c = tasks[2].workload;
    table.Record(a, {b}, 0.82);
    table.Record(b, {a}, 0.91);
    table.Record(c, {c}, 0.74);
    table.Record(a, {b, c}, 0.63);
  }

  SchedulingContext before;
  before.catalog = &catalog;
  before.throughput = pin.with_table ? &table : nullptr;
  for (const TaskInfo& task : tasks) {
    if (!arrived(task)) {
      before.tasks.push_back(task);
    }
  }
  before.Finalize();
  TnrpCalculator calculator(before, {});
  ClusterConfig previous = FullReconfiguration(before, calculator);

  SchedulingContext now;
  now.catalog = &catalog;
  now.throughput = before.throughput;
  std::vector<InstanceId> host(tasks.size(), kInvalidInstanceId);
  for (std::size_t i = 0; i < previous.instances.size(); ++i) {
    ConfigInstance& instance = previous.instances[i];
    instance.reuse_instance = static_cast<InstanceId>(1000 + i);
    InstanceInfo live;
    live.id = instance.reuse_instance;
    live.type_index = instance.type_index;
    for (TaskId id : instance.tasks) {
      host[static_cast<std::size_t>(id)] = live.id;
      if (!completed(tasks[static_cast<std::size_t>(id)])) {
        live.tasks.push_back(id);
      }
    }
    now.instances.push_back(live);
  }
  for (const TaskInfo& task : tasks) {
    if (!completed(task)) {
      TaskInfo placed = task;
      placed.current_instance = host[static_cast<std::size_t>(task.id)];
      now.tasks.push_back(placed);
    }
  }
  now.delta.complete = true;
  now.delta.jobs_completed = {2, 7};
  for (JobId job = first_arrival; job < static_cast<JobId>(trace.jobs.size()); ++job) {
    now.delta.jobs_arrived.push_back(job);
  }
  now.Finalize();
  calculator.Rebind(now);

  Digests digests;
  digests.full = Digest(FullReconfiguration(now, calculator), catalog);
  digests.partial = Digest(PartialReconfiguration(now, calculator), catalog);
  ClusterConfig incremental;
  digests.outcome = IncrementalReconfigurationInto(now, calculator, previous, incremental);
  digests.incremental = Digest(incremental, catalog);
  return digests;
}

const std::vector<PinCase>& PinCases() {
  static const std::vector<PinCase> cases = {
      {"no_table", 3, 36, 0.0, false, false,
       "2:1,3,4,5,6,10,12;2:13,14,15,17,18,19;2:21,22,23,27,29,32;"
       "2:31,34,35,0,9,11,20;1:24,26,28,30;17:16,8,25;0:33;$116.3952",
       "2:1,3,4,5,6,10;2:12,13,14,15,17,19;2:18,21,22,23,27,0,9,28;"
       "2:29,31,32,11,20,24,26;17:16,8,25;0:30;2:34,35,33;$128.6352",
       "2:12,13,14,15,17,19;2:18,21,22,23,27,0,9,28;2:29,31,32,11,20,24,26;"
       "0:30;2:1,3,4,5,6,10,33;2:34,35,16,8,25;$125.46000000000001"},
      {"table", 5, 36, 0.0, true, false,
       "2:10;2:0,8,9,11,12,14;2:13,15,19,20,22,18;2:24,29,31,34,26,33;"
       "2:30,32,35,1,3,4;0:5;0:6;0:17;0:21,16;0:23;0:25;0:27;0:28;"
       "$146.88000000000002",
       "2:10;2:0,8,9,11,12;2:14,15,19,20,22;2:13,26,29,30,31,18;"
       "2:24,32,3,4,5,6,17;0:1;0:21,16;0:23;0:25;0:27;0:28;2:33,34,35;"
       "$165.24000000000001",
       "2:10;2:13,26,29,30,31,18;2:24,32,3,4,5,6,17;0:1;0:21,16;0:23;0:25;"
       "0:27;0:28;2:0,8,9,11,12,14;2:15,19,20,22,33;1:34,35;"
       "$153.00000000000003"},
      {"multi_task", 11, 30, 0.3, true, false,
       "2:6,7,12,15,30,40,45;2:9,39,46,47,50;2:10,48,43,44;2:13,18,19;"
       "2:14,20,21;1:22,23;1:24,25;1:26,27;1:28,29;1:33,34;1:35,36;"
       "18:31,32,49;0:2;0:3;0:8;0:37;0:38;0:41;0:42;15:0,1,16;5:17;"
       "$222.90900000000008",
       "2:6,7,12,15,30;2:9,39,40,45,46,47;2:10,13,43,44;2:14,18,19;1:20,21;"
       "1:22,23;1:24,25;1:26,27;1:28,29;1:33,34;1:35,36;0:2;0:3;0:8;0:37;0:38;"
       "0:41;0:42;8:32,16,17;14:0;14:1;1:48,50;16:31,49;$222.57720000000006",
       "2:9,39,40,45,46,47;2:10,13,43,44;2:14,18,19;1:20,21;1:22,23;1:24,25;"
       "1:26,27;1:28,29;1:33,34;1:35,36;0:2;0:3;0:8;0:37;0:38;0:41;0:42;"
       "8:32,16,17;14:0;14:1;2:6,7,12,15,30,48;1:50,31;15:49;"
       "$221.51880000000003"},
      {"speedup_twins", 7, 36, 0.0, true, true,
       "2:0,4,6,9,13,14;2:1,12,18,19,29;2:15,17,20,22,30;2:24,26,31,32,8;"
       "2:34,35,5,28,21;10:3,11,33,36,23;0:25,27;16:37,16;14:10;"
       "$132.39000000000001",
       "2:0,4,6,9,13;2:1,12,14,18,29;2:15,17,19,20;2:22,24,26,31,8;"
       "2:30,32,5,25,37;0:21;0:28;9:3,11,10;16:36,16;14:23;13:27;1:34,35;7:33;"
       "$147.95460000000003",
       "2:1,12,14,18,29;2:22,24,26,31,8;2:30,32,5,25,37;0:21;0:28;9:3,11,10;"
       "16:36,16;14:23;13:27;2:0,4,6,9,13,15;2:17,19,20,34;1:35;7:33;$147.9546"},
      {"speedup_twins_no_table", 13, 40, 0.0, false, true,
       "2:4,6,8,11,13,14;2:15,17,18,19,20,38,0;2:23,24,25,26,1,3;"
       "2:27,28,29,30,32;2:33,34,36,37,5;2:39,12,16,31,35,21,10;10:9,40,41,22;"
       "$151.16399999999999",
       "2:4,6,8,15,0,1;2:11,13,14,17,18;2:19,20,23,24,26;2:25,27,28,29,3,5;"
       "2:30,32,33,34,12,16,35;1:36,31,10;10:21,9,40,41;15:22;2:37,38,39;"
       "$164.4624",
       "2:11,13,14,17,18;2:19,20,23,24,26;2:25,27,28,29,3,5;"
       "2:30,32,33,34,12,16,35;1:36,31,10;10:21,9,40,41;15:22;"
       "2:4,6,8,15,37,38,0,1;1:39;$152.22240000000002"},
      {"large", 17, 60, 0.2, true, true,
       "2:0,3,4,6,9,15,23;2:1,14,27,40,42,61,67;2:10,16,53,65,66;"
       "2:11,69,70,82,83,86;2:12,85,87,38,63,64;2:13,39,47,48;1:19,20;1:21,22;"
       "1:56,24,34,41;1:57,35,45,62;1:58,68,73;1:59,25;19:28,76,77,29,60;"
       "10:36,37,17;17:18,43,46;0:8,89;0:26;0:30;0:31;0:32;0:33;0:49;0:50;"
       "0:51;0:52;0:54;0:55;0:71;0:72;0:75;0:78;0:79;0:80;0:81;16:44,84;"
       "6:74,5;12:88;$295.23270000000008",
       "2:0,3,4,6,9;2:1,14,15,23,27,40;2:10,16,42,53,61,67;"
       "2:11,65,66,69,70,82;2:12,83,38,39,63;2:13,47,48,64;1:19,20;1:21,22;"
       "1:56,24,34,41;1:57,35,45,62;1:58,68,73;1:59,25;19:28,76,77,29,60;"
       "10:36,37,17;17:18,43,46;0:8,89;0:26;0:30;0:31;0:32;0:33;0:49;0:50;"
       "0:51;0:52;0:54;0:55;0:71;0:72;0:75;0:78;0:79;0:80;0:81;16:44,84;"
       "6:74,5;12:88;2:85,86,87;$319.7127000000001",
       "2:10,16,42,53,61,67;2:11,65,66,69,70,82;2:12,83,38,39,63;"
       "2:13,47,48,64;1:19,20;1:21,22;1:56,24,34,41;1:57,35,45,62;1:58,68,73;"
       "1:59,25;19:28,76,77,29,60;10:36,37,17;17:18,43,46;0:8,89;0:26;0:30;"
       "0:31;0:32;0:33;0:49;0:50;0:51;0:52;0:54;0:55;0:71;0:72;0:75;0:78;0:79;"
       "0:80;0:81;16:44,84;6:74,5;12:88;2:0,3,4,6,9,15,23;2:1,14,27,40,86,85;"
       "1:87;$307.47270000000009"},
  };
  return cases;
}

TEST(PackingPinTest, FullReconfigurationIsPinned) {
  for (const PinCase& pin : PinCases()) {
    EXPECT_EQ(RunCase(pin).full, pin.full) << pin.name;
  }
}

TEST(PackingPinTest, PartialReconfigurationIsPinned) {
  for (const PinCase& pin : PinCases()) {
    EXPECT_EQ(RunCase(pin).partial, pin.partial) << pin.name;
  }
}

TEST(PackingPinTest, IncrementalReconfigurationIsPinned) {
  for (const PinCase& pin : PinCases()) {
    const Digests digests = RunCase(pin);
    EXPECT_EQ(digests.outcome, IncrementalOutcome::kIncremental) << pin.name;
    EXPECT_EQ(digests.incremental, pin.incremental) << pin.name;
  }
}

}  // namespace
}  // namespace eva
