#include "src/sim/event_queue.h"

#include <algorithm>
#include <functional>

namespace eva {

void EventQueue::Push(SimTime time, SimEventType type, std::int64_t a, int version) {
  heap_.push_back(SimEvent{time, next_seq_++, type, a, version});
  std::push_heap(heap_.begin(), heap_.end(), std::greater<SimEvent>());
}

SimEvent EventQueue::Pop() {
  std::pop_heap(heap_.begin(), heap_.end(), std::greater<SimEvent>());
  const SimEvent event = heap_.back();
  heap_.pop_back();
  return event;
}

}  // namespace eva
