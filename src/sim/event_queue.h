// Versioned event heap for the discrete-event simulator.
//
// Events carry a payload id (`a`: job index / task id / instance id) and a
// version. Versions implement cancellation without heap surgery: state
// transitions bump the owning record's version, so a handler popping an
// event whose version no longer matches simply drops it. Ties at equal
// timestamps break FIFO via a monotonically increasing sequence number,
// which makes the event order — and therefore every simulation — fully
// deterministic.

#ifndef SRC_SIM_EVENT_QUEUE_H_
#define SRC_SIM_EVENT_QUEUE_H_

#include <cstdint>
#include <vector>

#include "src/common/units.h"

namespace eva {

enum class SimEventType {
  kArrival,
  kRound,
  kInstanceReady,
  kCheckpointDone,
  kLaunchDone,
  kCompletionCheck,
  // Market events, handled by MarketEvents (src/sim/market_events.h): the
  // spot repricing check and a warned instance's reclaim (`a` = instance
  // id); the fault-schedule check, a zone outage and the start of a zone
  // drain (`a` = zone), and a drained instance's reclaim (`a` = instance id).
  kSpotCheck,
  kSpotPreempt,
  kFaultCheck,
  kZoneOutage,
  kDrainStart,
  kDrainDeadline,
};

struct SimEvent {
  SimTime time = 0.0;
  std::uint64_t seq = 0;  // FIFO tie-break.
  SimEventType type = SimEventType::kArrival;
  std::int64_t a = 0;  // job index / task id / instance id
  int version = 0;

  // Equal-time ties: arrivals first, then FIFO. The simulator injects
  // arrivals lazily (each pushes its successor) so the heap holds only live
  // events; the explicit arrival priority reproduces the order the old
  // eager push produced implicitly, where every arrival carried a lower
  // sequence number than any dynamically scheduled event — e.g. a job
  // arriving exactly on a round boundary is admitted before that round.
  bool operator>(const SimEvent& other) const {
    if (time != other.time) {
      return time > other.time;
    }
    const int rank = type == SimEventType::kArrival ? 0 : 1;
    const int other_rank = other.type == SimEventType::kArrival ? 0 : 1;
    if (rank != other_rank) {
      return rank > other_rank;
    }
    return seq > other.seq;
  }
};

// A binary heap (std::push_heap / std::pop_heap) over one vector, ordered by
// SimEvent::operator>. That comparator is a strict total order (time, then
// arrival rank, then the unique sequence number), so the pop sequence — and
// therefore every simulation — does not depend on the heap's layout.
class EventQueue {
 public:
  void Push(SimTime time, SimEventType type, std::int64_t a = 0, int version = 0);

  bool Empty() const { return heap_.empty(); }
  std::size_t Size() const { return heap_.size(); }

  // Earliest event (FIFO among ties). Requires !Empty().
  const SimEvent& Top() const { return heap_.front(); }
  SimEvent Pop();

  // Total number of events ever pushed.
  std::uint64_t pushed() const { return next_seq_; }

 private:
  std::vector<SimEvent> heap_;
  std::uint64_t next_seq_ = 0;
};

}  // namespace eva

#endif  // SRC_SIM_EVENT_QUEUE_H_
