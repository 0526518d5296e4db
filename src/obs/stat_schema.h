// One field list per run-statistics struct.
//
// SchedulerCounters, FaultStats, the scalar fields of SimulationMetrics and
// the counts in FederationStats each declare their fields exactly once, as
// an X-macro list of entries
//
//   X(type, name, default, kind, merge)
//
// The list expands into the struct's members (EVA_STAT_MEMBER) and into a
// static ForEachStat visitor (EVA_STAT_SCHEMA). Registry publication
// (obs/publish.h), cross-tenant merging (MergeStats) and, through the
// registry, bench JSON are all derived from it, so adding a counter edits
// the list and nothing else.
//
//   kind   kCounter — an integer tally, published with SetCounter;
//          kGauge   — a real value, published with SetGauge.
//   merge  how a field combines across tenants: kSum (tallies, costs),
//          kMax (maxima, horizons) or kLast (the merged-in value replaces
//          the held one: averages and ratios, which do not add).
//
// A field is published as "<prefix>.<name>", the prefix being the struct's
// kStatPrefix. Host-measured values (wall clocks) stay out of the lists:
// the registry carries only deterministic simulated quantities.
//
// Comments inside a list must be /* */ comments: a // comment would
// swallow the line splice that follows it.

#ifndef SRC_OBS_STAT_SCHEMA_H_
#define SRC_OBS_STAT_SCHEMA_H_

#include <algorithm>

namespace eva {

enum class StatKind { kCounter, kGauge };
enum class StatMerge { kSum, kMax, kLast };

// Declares one list entry as a struct member.
#define EVA_STAT_MEMBER(type, name, init, kind, merge) type name = init;

// Hands one list entry to ForEachStat's visitor.
#define EVA_STAT_VISIT(type, name, init, kind, merge)                          \
  visit(#name, StatKind::kind, StatMerge::merge, &StatSelf::name);

// Inside struct `Self`: the registry prefix and
// ForEachStat(visit), which calls visit(name, kind, merge, &Self::member)
// for every entry of FIELDS in list order.
#define EVA_STAT_SCHEMA(Self, prefix, FIELDS)                                  \
  static constexpr const char* kStatPrefix = prefix;                           \
  template <typename Visit>                                                    \
  static void ForEachStat(Visit&& visit) {                                     \
    using StatSelf = Self;                                                     \
    FIELDS(EVA_STAT_VISIT)                                                     \
  }

// Folds `from` into `into` field by field, by each field's merge rule.
template <typename Stats>
void MergeStats(const Stats& from, Stats& into) {
  Stats::ForEachStat([&](const char*, StatKind, StatMerge merge, auto member) {
    auto& held = into.*member;
    switch (merge) {
      case StatMerge::kSum:
        held += from.*member;
        break;
      case StatMerge::kMax:
        held = std::max(held, from.*member);
        break;
      case StatMerge::kLast:
        held = from.*member;
        break;
    }
  });
}

}  // namespace eva

#endif  // SRC_OBS_STAT_SCHEMA_H_
