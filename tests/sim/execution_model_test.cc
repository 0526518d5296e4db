// Unit + property tests for the execution model's incremental machinery.
//
// The property test drives randomized operation sequences through the real
// TaskLifecycle (retargets, launches, checkpoints, completions, work
// integration) and checks after every step that the dirty-set rate
// recomputation left every job at exactly the rate a full from-scratch
// recomputation would produce, and that the projected earliest completion
// equals a brute-force scan.

#include "src/sim/execution_model.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <vector>

#include "src/common/rng.h"
#include "src/sim/task_lifecycle.h"
#include "src/workload/trace_gen.h"

namespace eva {
namespace {

// A bench of simulator internals wired exactly like the orchestrator wires
// them, minus the scheduler.
struct EngineParts {
  EngineParts(const InstanceCatalog& catalog, const InterferenceModel& interference)
      : state(catalog),
        exec(&state, &catalog, &interference),
        lifecycle(&state, &exec, &queue, /*migration_delay_multiplier=*/1.0) {}

  ClusterState state;
  ExecutionModel exec;
  EventQueue queue;
  TaskLifecycle lifecycle;
  SimTime now = 0.0;
  SimulationMetrics metrics;

  InstRec& ReadyInstance(int type_index) {
    InstRec& instance = state.CreateInstance(type_index, now, now);
    instance.ready = true;
    return instance;
  }

  // Drains every due event the lifecycle scheduled, with the orchestrator's
  // version/state guards, then recomputes dirty rates.
  void DrainEvents() {
    while (!queue.Empty()) {
      const SimEvent event = queue.Pop();
      now = std::max(now, event.time);
      TaskRec* task = state.FindTask(event.a);
      if (task == nullptr || task->version != event.version) {
        continue;
      }
      if (event.type == SimEventType::kCheckpointDone &&
          task->state == TaskState::kCheckpointing) {
        lifecycle.OnCheckpointDone(*task, now);
      } else if (event.type == SimEventType::kLaunchDone &&
                 task->state == TaskState::kLaunching) {
        lifecycle.OnLaunchDone(*task, now);
      }
    }
    exec.RecomputeDirtyRates(now);
  }
};

class ExecutionModelTest : public testing::Test {
 protected:
  InstanceCatalog catalog_ = InstanceCatalog::AwsDefault();
};

TEST_F(ExecutionModelTest, CheckpointingNeighborStopsDegradingThroughput) {
  const InterferenceModel interference = InterferenceModel::Uniform(0.5);
  EngineParts engine(catalog_, interference);
  const WorkloadId vit = WorkloadRegistry::IdOf("ViT");
  JobRec& job_a = engine.state.AddJob(JobSpec::FromWorkload(0, 0.0, vit, 3600.0));
  JobRec& job_b = engine.state.AddJob(JobSpec::FromWorkload(1, 0.0, vit, 3600.0));
  InstRec& shared = engine.ReadyInstance(catalog_.IndexOf("p3.16xlarge"));
  TaskRec& task_a = *engine.state.FindTask(job_a.tasks[0]);
  TaskRec& task_b = *engine.state.FindTask(job_b.tasks[0]);
  engine.lifecycle.Retarget(task_a, shared.id, engine.now);
  engine.lifecycle.Retarget(task_b, shared.id, engine.now);
  engine.DrainEvents();

  // Both running co-located: pairwise 0.5 both ways.
  ASSERT_EQ(task_a.state, TaskState::kRunning);
  ASSERT_EQ(task_b.state, TaskState::kRunning);
  EXPECT_DOUBLE_EQ(engine.exec.TaskColocationFactor(task_a), 0.5);
  EXPECT_DOUBLE_EQ(job_a.current_rate, 0.5);

  // B starts checkpointing toward another instance: the moment it stops
  // executing it must stop degrading A, even though its container is still
  // on the shared instance.
  InstRec& other = engine.ReadyInstance(catalog_.IndexOf("p3.8xlarge"));
  engine.lifecycle.Retarget(task_b, other.id, engine.now);
  ASSERT_EQ(task_b.state, TaskState::kCheckpointing);
  ASSERT_EQ(shared.present.count(task_b.id), 1u);
  EXPECT_DOUBLE_EQ(engine.exec.TaskColocationFactor(task_a), 1.0);
  engine.exec.RecomputeDirtyRates(engine.now);
  EXPECT_DOUBLE_EQ(job_a.current_rate, 1.0);

  // After the checkpoint completes the container leaves the present set —
  // no stale entry remains to look up.
  engine.DrainEvents();
  EXPECT_EQ(shared.present.count(task_b.id), 0u);
  EXPECT_DOUBLE_EQ(engine.exec.TaskColocationFactor(task_a), 1.0);
}

TEST_F(ExecutionModelTest, CompletedNeighborLeavesNoStaleEntry) {
  const InterferenceModel interference = InterferenceModel::Uniform(0.8);
  EngineParts engine(catalog_, interference);
  const WorkloadId vit = WorkloadRegistry::IdOf("ViT");
  JobRec& job_a = engine.state.AddJob(JobSpec::FromWorkload(0, 0.0, vit, 3600.0));
  JobRec& job_b = engine.state.AddJob(JobSpec::FromWorkload(1, 0.0, vit, 3600.0));
  InstRec& shared = engine.ReadyInstance(catalog_.IndexOf("p3.16xlarge"));
  TaskRec& task_a = *engine.state.FindTask(job_a.tasks[0]);
  engine.lifecycle.Retarget(task_a, shared.id, engine.now);
  engine.lifecycle.Retarget(*engine.state.FindTask(job_b.tasks[0]), shared.id, engine.now);
  engine.DrainEvents();
  EXPECT_DOUBLE_EQ(engine.exec.TaskColocationFactor(task_a), 0.8);

  engine.lifecycle.CompleteJob(job_b, engine.now, engine.metrics);
  // Terminal transition pruned the present set; A is alone again and every
  // remaining present entry resolves (TaskColocationFactor at()s them).
  EXPECT_EQ(shared.present.size(), 1u);
  EXPECT_DOUBLE_EQ(engine.exec.TaskColocationFactor(task_a), 1.0);
  engine.exec.RecomputeDirtyRates(engine.now);
  EXPECT_DOUBLE_EQ(job_a.current_rate, 1.0);
}

TEST_F(ExecutionModelTest, WorkIntegrationFlagsCompletionCandidates) {
  const InterferenceModel interference = InterferenceModel::Uniform(1.0);
  EngineParts engine(catalog_, interference);
  const WorkloadId vit = WorkloadRegistry::IdOf("ViT");
  JobRec& job = engine.state.AddJob(JobSpec::FromWorkload(0, 0.0, vit, 100.0));
  InstRec& instance = engine.ReadyInstance(catalog_.IndexOf("p3.8xlarge"));
  engine.lifecycle.Retarget(*engine.state.FindTask(job.tasks[0]), instance.id, engine.now);
  engine.DrainEvents();
  ASSERT_EQ(engine.exec.progressing().count(0), 1u);

  engine.exec.IntegrateWork(50.0);
  EXPECT_TRUE(engine.exec.completion_candidates().empty());
  engine.exec.IntegrateWork(50.0);
  EXPECT_EQ(engine.exec.completion_candidates().count(0), 1u);

  engine.exec.OnJobDeactivated(0);
  EXPECT_TRUE(engine.exec.completion_candidates().empty());
  EXPECT_TRUE(engine.exec.progressing().empty());
}

// Full recomputation oracle: what every job's rate should be, from scratch.
double FullRecomputeRate(const ExecutionModel& exec, const ClusterState& state,
                         const JobRec& job) {
  double rate = -1.0;
  for (TaskId task_id : job.tasks) {
    const TaskRec& task = state.tasks().at(task_id);
    if (task.state != TaskState::kRunning) {
      return 0.0;
    }
    const double tput = exec.TaskThroughput(task);
    rate = rate < 0.0 ? tput : std::min(rate, tput);
  }
  return rate > 0.0 ? rate : 0.0;
}

// Brute-force completion projection: the first-wins minimum of
// now + max(remaining, 0) / rate over the active positive-rate jobs in id
// order, or -1 when there are none.
SimTime BruteForceEarliestCompletion(const ClusterState& state, SimTime now) {
  SimTime earliest = -1.0;
  for (const auto& [job_id, job] : state.jobs()) {
    (void)job_id;
    if (!job.active || job.current_rate <= 0.0) {
      continue;
    }
    const SimTime eta = now + std::max(job.remaining_work_s, 0.0) / job.current_rate;
    if (earliest < 0.0 || eta < earliest) {
      earliest = eta;
    }
  }
  return earliest;
}

TEST_F(ExecutionModelTest, DirtySetRecomputeEqualsFullRecomputeOnRandomOps) {
  const InterferenceModel interference = InterferenceModel::Measured();
  Rng rng(1234);
  const std::vector<int> gpu_types = {catalog_.IndexOf("p3.8xlarge"),
                                      catalog_.IndexOf("p3.16xlarge")};
  for (int round = 0; round < 20; ++round) {
    EngineParts engine(catalog_, interference);
    std::vector<InstanceId> instances;
    for (int i = 0; i < 4; ++i) {
      instances.push_back(
          engine.ReadyInstance(gpu_types[static_cast<std::size_t>(rng.UniformInt(0, 1))]).id);
    }
    JobId next_job = 0;
    for (int op = 0; op < 60; ++op) {
      const int kind = static_cast<int>(rng.UniformInt(0, 9));
      if (kind <= 2 || engine.state.jobs().empty()) {
        // Add a 1-2 task job on a random Table 7 workload.
        const WorkloadId workload =
            static_cast<WorkloadId>(rng.UniformInt(0, WorkloadRegistry::NumWorkloads() - 1));
        engine.state.AddJob(JobSpec::FromWorkload(
            next_job++, engine.now, workload, rng.Uniform(100.0, 5000.0),
            static_cast<int>(rng.UniformInt(1, 2))));
      } else if (kind <= 6) {
        // Retarget a random non-done task to a random instance.
        auto it = engine.state.tasks().begin();
        std::advance(it, rng.UniformInt(0, static_cast<std::int64_t>(
                                               engine.state.tasks().size()) - 1));
        if (TaskRec* task = engine.state.FindTask(it->id)) {
          if (task->state != TaskState::kDone) {
            const std::size_t which =
                static_cast<std::size_t>(rng.UniformInt(0, 3));
            engine.lifecycle.Retarget(*task, instances[which], engine.now);
          }
        }
      } else if (kind == 7 && !engine.state.active_jobs().empty()) {
        // Complete a random active job.
        auto it = engine.state.active_jobs().begin();
        std::advance(it, rng.UniformInt(0, static_cast<std::int64_t>(
                                               engine.state.active_jobs().size()) - 1));
        engine.lifecycle.CompleteJob(*engine.state.FindJob(*it), engine.now, engine.metrics);
      } else if (kind == 8) {
        engine.exec.IntegrateWork(rng.Uniform(1.0, 300.0));
      } else {
        engine.DrainEvents();  // Let checkpoints/launches complete.
      }
      const SimTime earliest = engine.exec.RecomputeDirtyRates(engine.now);
      // The projection that arms completion checks is exact.
      ASSERT_EQ(earliest, BruteForceEarliestCompletion(engine.state, engine.now))
          << "round " << round << " op " << op;

      // Every job's incrementally-maintained rate equals the full oracle.
      for (const auto& [job_id, job] : engine.state.jobs()) {
        if (!job.active) {
          continue;
        }
        const double expected = FullRecomputeRate(engine.exec, engine.state, job);
        ASSERT_EQ(job.current_rate, expected)
            << "round " << round << " op " << op << " job " << job_id;
        ASSERT_EQ(engine.exec.progressing().count(job_id), expected > 0.0 ? 1u : 0u);
      }
    }
  }
}

}  // namespace
}  // namespace eva
