// Per-thread scratch leases: the codebase's one sanctioned thread-local
// scratch mechanism for hot per-round code.
//
// ScratchLease<T> hands out a per-(thread, nesting-depth) pooled instance
// of T. A plain `thread_local T` breaks when the leasing code re-enters
// itself on the same thread with the outer lease still live (a set-TNRP
// miss leases a task list while each member's TNRP leases another), so
// leases are framed by depth. It is per thread because federation tenants
// decide concurrently. Steady state: zero allocations, and — unlike ad-hoc
// thread_locals scattered per call site — one audited mechanism.
//
// Ownership rule: a lease belongs to the scope that took it. Scratch never
// carries values between uses (every user fully rewrites what it reads),
// and nothing that crosses an API boundary may point into it; such data is
// copied into caller-owned storage first.

#ifndef SRC_COMMON_ARENA_H_
#define SRC_COMMON_ARENA_H_

#include <cstddef>
#include <memory>
#include <vector>

namespace eva {

// Leases the calling thread's pooled instance of T for the current nesting
// depth. The first lease at a given (thread, depth) default-constructs the
// instance; later leases reuse it with whatever capacity its last user
// grew, so steady-state leasing allocates nothing. The contents are
// unspecified on acquire — users must clear/rewrite what they read.
template <typename T>
class ScratchLease {
 public:
  ScratchLease() {
    auto& pool = Pool();
    if (static_cast<std::size_t>(pool.depth) >= pool.frames.size()) {
      pool.frames.push_back(std::make_unique<T>());
    }
    ptr_ = pool.frames[static_cast<std::size_t>(pool.depth)].get();
    ++pool.depth;
  }
  ~ScratchLease() { --Pool().depth; }

  ScratchLease(const ScratchLease&) = delete;
  ScratchLease& operator=(const ScratchLease&) = delete;

  T& operator*() const { return *ptr_; }
  T* operator->() const { return ptr_; }

 private:
  struct FramePool {
    std::vector<std::unique_ptr<T>> frames;
    int depth = 0;
  };
  static FramePool& Pool() {
    static thread_local FramePool pool;
    return pool;
  }

  T* ptr_;
};

}  // namespace eva

#endif  // SRC_COMMON_ARENA_H_
