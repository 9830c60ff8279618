// Slab arena for fixed-size payload objects (page payloads, message bodies).
//
// `store_data` replay used to allocate every 4 KB `PageData` with a fresh heap allocation
// on each page fault and free it on eviction/invalidation — at millions of faults the
// allocator becomes the bottleneck (ROADMAP: "NUMA-aware arena for page payloads"). A
// SlabArena instead carves objects out of large slabs and recycles freed objects through
// an intrusive free list: steady-state faults are a pointer pop, and the arena never
// returns memory to the OS while alive, so replay throughput stops depending on malloc.
//
// NUMA: slabs are allocated lazily, on the thread that takes the miss. Under Linux's
// default first-touch policy a per-blade arena therefore lands on the node of the thread
// driving that blade without any explicit binding; callers that want placement up front
// can `ReserveSlabs` from the owning thread.
//
// Thread safety: none. Arenas are per-owner (one per compute blade's DramCache); the
// replay engine only allocates/frees payloads in its serialized coherence phase.
#ifndef MIND_SRC_COMMON_SLAB_ARENA_H_
#define MIND_SRC_COMMON_SLAB_ARENA_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <type_traits>
#include <vector>

namespace mind {

template <typename T, size_t kObjectsPerSlab = 64>
class SlabArena {
  // Freed objects are reused as free-list nodes, so their bytes must be dead on Free.
  static_assert(std::is_trivially_destructible_v<T>,
                "SlabArena recycles object storage; T must be trivially destructible");
  static_assert(sizeof(T) >= sizeof(void*), "objects must be able to hold a free-list link");
  // Objects double as free-list nodes in place: slabs are pointer-aligned (see
  // SlabStorage) and the stride must preserve that alignment for every slot.
  static_assert(sizeof(T) % alignof(void*) == 0,
                "object stride must keep embedded free-list links pointer-aligned");

 public:
  SlabArena() = default;
  SlabArena(const SlabArena&) = delete;
  SlabArena& operator=(const SlabArena&) = delete;

  // Returns an uninitialized object (recycled storage keeps its stale bytes; callers that
  // need zeroed pages must clear it, exactly as they would after malloc).
  T* Alloc() {
    ++allocs_;
    if (free_head_ != nullptr) {
      ++recycled_;
      FreeNode* node = free_head_;
      free_head_ = node->next;
      --free_count_;
      return std::launder(reinterpret_cast<T*>(node));
    }
    if (bump_remaining_ == 0) {
      AddSlab();
    }
    T* obj = std::launder(reinterpret_cast<T*>(bump_));
    bump_ += sizeof(T);
    --bump_remaining_;
    return obj;
  }

  void Free(T* obj) {
    auto* node = reinterpret_cast<FreeNode*>(obj);
    node->next = free_head_;
    free_head_ = node;
    ++free_count_;
    ++frees_;
  }

  // unique_ptr flavor: evicted payloads travel to the write-back path as owning pointers
  // and recycle themselves into the arena when dropped. A default-constructed deleter
  // (null arena) falls back to `delete` so detached pointers stay safe.
  struct Deleter {
    SlabArena* arena = nullptr;
    void operator()(T* obj) const {
      if (arena != nullptr) {
        arena->Free(obj);
      } else {
        delete obj;
      }
    }
  };
  using Ptr = std::unique_ptr<T, Deleter>;

  [[nodiscard]] Ptr AllocPtr() { return Ptr(Alloc(), Deleter{this}); }

  // Pre-faults `n` slabs from the calling thread (NUMA first-touch placement).
  void ReserveSlabs(size_t n) {
    const size_t want = slabs_.size() + n;
    // Growing the free list is the only way to bank capacity without disturbing the bump
    // cursor: carve each reserved slab straight into free nodes.
    while (slabs_.size() < want) {
      AddSlab();
      while (bump_remaining_ > 0) {
        T* obj = std::launder(reinterpret_cast<T*>(bump_));
        bump_ += sizeof(T);
        --bump_remaining_;
        Free(obj);
        --frees_;  // Reservation is not a caller-visible free.
      }
    }
  }

  [[nodiscard]] size_t slab_count() const { return slabs_.size(); }
  [[nodiscard]] uint64_t allocs() const { return allocs_; }
  [[nodiscard]] uint64_t frees() const { return frees_; }
  [[nodiscard]] uint64_t recycled() const { return recycled_; }
  [[nodiscard]] uint64_t live() const { return allocs_ - frees_; }
  [[nodiscard]] uint64_t free_count() const { return free_count_; }
  [[nodiscard]] size_t bytes_reserved() const {
    return slabs_.size() * kObjectsPerSlab * sizeof(T);
  }

 private:
  struct FreeNode {
    FreeNode* next;
  };

  void AddSlab() {
    slabs_.push_back(std::make_unique<SlabStorage>());
    bump_ = slabs_.back()->bytes;
    bump_remaining_ = kObjectsPerSlab;
  }

  struct SlabStorage {
    // Aligned for both T and the free-list links embedded in freed slots.
    alignas(alignof(T) > alignof(void*) ? alignof(T)
                                        : alignof(void*)) std::byte
        bytes[kObjectsPerSlab * sizeof(T)];
  };

  std::vector<std::unique_ptr<SlabStorage>> slabs_;
  std::byte* bump_ = nullptr;
  size_t bump_remaining_ = 0;
  FreeNode* free_head_ = nullptr;
  uint64_t free_count_ = 0;
  uint64_t allocs_ = 0;
  uint64_t frees_ = 0;
  uint64_t recycled_ = 0;
};

}  // namespace mind

#endif  // MIND_SRC_COMMON_SLAB_ARENA_H_
