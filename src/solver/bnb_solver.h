// Exact branch-and-bound packing solver.
//
// Stands in for the paper's Gurobi ILP (§4.1) in the Table 4 micro-
// benchmark: minimize sum of instance costs subject to every task being
// assigned and per-instance multi-resource capacities. The search branches
// on the placement of one task at a time (into an existing open instance or
// a fresh instance of each type) and prunes with a per-resource volume
// lower bound: serving total demand V_r of resource r costs at least
// V_r * min_k (C_k / Q_k^r). Like the paper's ILP runs, the solver is
// time-limited and reports the best incumbent (seeded with the Full
// Reconfiguration solution) plus whether optimality was proven.
//
// The search is a single-threaded depth-first search: tasks are branched
// in descending reservation-price order, and the incumbent changes only on
// strict improvement, so the result — configuration, cost, proven_optimal
// and nodes_explored — is a deterministic function of the context and the
// limits (a time limit that fires makes it depend on the machine).

#ifndef SRC_SOLVER_BNB_SOLVER_H_
#define SRC_SOLVER_BNB_SOLVER_H_

#include <cstdint>

#include "src/obs/trace.h"
#include "src/sched/types.h"

namespace eva {

struct SolverOptions {
  double time_limit_seconds = 10.0;
  std::uint64_t max_nodes = 50'000'000;

  // Use the Full Reconfiguration heuristic as the initial incumbent
  // (dramatically improves pruning). Disable to measure raw search.
  bool seed_with_heuristic = true;

  // Optional span sink: when bound, the solver emits one "bnb.solve"
  // instant (nodes explored, optimality) stamped at `trace_now_s` — the
  // caller's *virtual* time, since the solver itself has none. Wall-clock
  // duration stays out of the trace so traced runs remain byte-comparable.
  TraceBinding trace;
  double trace_now_s = 0.0;
};

struct SolverResult {
  ClusterConfig config;
  Money hourly_cost = 0.0;
  bool proven_optimal = false;
  std::uint64_t nodes_explored = 0;
  double wall_seconds = 0.0;
};

// Solves the static packing problem for all tasks in `context`
// (interference-free, like the paper's ILP formulation).
SolverResult SolveOptimalPacking(const SchedulingContext& context,
                                 const SolverOptions& options = {});

// The volume lower bound used for pruning, exposed for tests: a valid lower
// bound on the hourly cost of hosting the given tasks.
Money PackingLowerBound(const SchedulingContext& context,
                        const std::vector<const TaskInfo*>& tasks);

}  // namespace eva

#endif  // SRC_SOLVER_BNB_SOLVER_H_
