// Monotonic bump arenas and per-thread scratch leases — the memory layer
// the hot per-round and per-event paths allocate from.
//
// Three pieces, smallest first:
//   * MonotonicArena — chunked bump allocator. Allocate() is a pointer bump;
//     Reset() is O(1) and keeps every chunk, so a round-scoped arena reaches
//     a steady state where scheduling rounds perform zero heap allocations.
//     Mark()/Rewind() give stack-like frames for recursive users (the B&B
//     solver rewinds per branch node instead of freeing per-node vectors).
//   * ArenaAllocator<T> — std::allocator shim over a MonotonicArena so STL
//     containers can live in an arena. Deallocate is a no-op; memory comes
//     back at the owner's Reset()/Rewind(). Containers must not outlive it.
//   * ScratchLease<T> — a per-(thread, nesting-depth) pooled instance of T.
//     This generalizes the packing-scratch idiom: a plain `thread_local T`
//     breaks when the leasing code re-enters itself on the same thread with
//     the outer lease still live (a set-TNRP miss leases a task list while
//     each member's TNRP leases another), so leases are framed by depth.
//     It is per thread because federation tenants decide concurrently.
//     Steady state: zero allocations, and — unlike ad-hoc thread_locals
//     scattered per call site — one audited mechanism (scratch never
//     carries values between uses; every user fully rewrites it).
//
// Ownership rule used throughout the engine: an arena (or scratch frame) is
// owned by exactly one long-lived object (a solver worker, a packing call, a
// scheduling round) and reset at that owner's boundary. Nothing allocated
// from it may escape the owner; anything that crosses an API boundary is
// copied into caller-owned storage first.

#ifndef SRC_COMMON_ARENA_H_
#define SRC_COMMON_ARENA_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <type_traits>
#include <vector>

namespace eva {

class MonotonicArena {
 public:
  // `min_chunk_bytes` is the size of the first chunk; later chunks double
  // until kMaxChunkBytes. Requests larger than the current chunk get a
  // dedicated chunk of exactly the requested size.
  explicit MonotonicArena(std::size_t min_chunk_bytes = 1 << 12)
      : min_chunk_bytes_(min_chunk_bytes) {}

  MonotonicArena(const MonotonicArena&) = delete;
  MonotonicArena& operator=(const MonotonicArena&) = delete;

  void* Allocate(std::size_t bytes, std::size_t align) {
    std::size_t offset = (offset_ + (align - 1)) & ~(align - 1);
    if (chunk_ >= chunks_.size() || offset + bytes > chunks_[chunk_].size) {
      return AllocateSlow(bytes, align);
    }
    void* p = chunks_[chunk_].data.get() + offset;
    offset_ = offset + bytes;
    return p;
  }

  template <typename T>
  T* AllocateArray(std::size_t n) {
    static_assert(std::is_trivially_destructible_v<T>,
                  "arena memory is reclaimed without running destructors");
    return static_cast<T*>(Allocate(n * sizeof(T), alignof(T)));
  }

  // O(1): rewinds to the first chunk, keeping every chunk's memory. All
  // outstanding allocations become invalid.
  void Reset() {
    chunk_ = 0;
    offset_ = 0;
  }

  // Frees every chunk (destructor behavior, callable early).
  void Release() {
    chunks_.clear();
    chunks_.shrink_to_fit();
    Reset();
  }

  // Stack-like frames: Mark() the current position, allocate freely, then
  // Rewind() to reclaim everything allocated since — O(1), keeps chunks.
  struct Marker {
    std::size_t chunk = 0;
    std::size_t offset = 0;
  };
  Marker Mark() const { return {chunk_, offset_}; }
  void Rewind(Marker m) {
    chunk_ = m.chunk;
    offset_ = m.offset;
  }

  // Bytes handed out since the last Reset (diagnostic; alignment included).
  std::size_t BytesUsed() const;
  // Total bytes held in chunks (high-water reservation).
  std::size_t BytesReserved() const;

 private:
  struct Chunk {
    std::unique_ptr<unsigned char[]> data;
    std::size_t size = 0;
  };

  static constexpr std::size_t kMaxChunkBytes = std::size_t{1} << 22;

  void* AllocateSlow(std::size_t bytes, std::size_t align);

  std::vector<Chunk> chunks_;
  std::size_t chunk_ = 0;   // Index of the chunk being bumped.
  std::size_t offset_ = 0;  // Bump offset within chunks_[chunk_].
  std::size_t min_chunk_bytes_;
};

// std::allocator shim over a MonotonicArena. The arena must outlive every
// container using it; deallocate is a no-op (memory returns on Reset).
template <typename T>
class ArenaAllocator {
 public:
  using value_type = T;

  explicit ArenaAllocator(MonotonicArena* arena) : arena_(arena) {}
  template <typename U>
  ArenaAllocator(const ArenaAllocator<U>& other) : arena_(other.arena()) {}

  T* allocate(std::size_t n) {
    return static_cast<T*>(arena_->Allocate(n * sizeof(T), alignof(T)));
  }
  void deallocate(T*, std::size_t) {}

  MonotonicArena* arena() const { return arena_; }

  // Propagate on container copy/move/swap: a container's memory must always
  // come from the arena it was constructed against.
  using propagate_on_container_copy_assignment = std::true_type;
  using propagate_on_container_move_assignment = std::true_type;
  using propagate_on_container_swap = std::true_type;

  friend bool operator==(const ArenaAllocator& a, const ArenaAllocator& b) {
    return a.arena_ == b.arena_;
  }
  friend bool operator!=(const ArenaAllocator& a, const ArenaAllocator& b) {
    return !(a == b);
  }

 private:
  MonotonicArena* arena_;
};

template <typename T>
using ArenaVector = std::vector<T, ArenaAllocator<T>>;

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
