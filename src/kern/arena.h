#ifndef TPR_KERN_ARENA_H_
#define TPR_KERN_ARENA_H_

// Thread-local caching allocator for the tensor/autograd hot path.
//
// Every allocation is rounded up to a power-of-two bucket and, on free,
// parked on the current thread's free-list for that bucket instead of
// being returned to the system. After the first training step has warmed
// the lists, a steady-state step is served entirely from recycled blocks:
// the `nn.alloc_bytes` counter (fresh bytes fetched from the system) goes
// flat while `nn.arena_hits` keeps climbing. Blocks may be freed on a
// different thread than they were allocated on; ownership simply
// transfers to the freeing thread's lists, which keeps every list
// single-threaded and lock-free. Each tpr::par worker therefore owns an
// independent arena for the graphs of the shards it trains.
//
// Lifetime: arenas die with their thread (releasing every cached block).
// Frees that happen after the owning thread's arena is destroyed — e.g.
// process-exit statics — fall back to the system allocator.

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

namespace tpr::kern {

/// Allocates `bytes` (64-byte aligned) from the calling thread's arena.
/// Contents are uninitialized (recycled blocks keep stale data).
/// Returns nullptr for bytes == 0.
void* ArenaAlloc(size_t bytes);

/// Returns a block obtained from ArenaAlloc to the calling thread's
/// arena. `bytes` must be the size passed to ArenaAlloc.
void ArenaFree(void* p, size_t bytes) noexcept;

/// Rounded bucket size actually reserved for a request of `bytes`.
size_t ArenaBucketBytes(size_t bytes);

struct ArenaStats {
  uint64_t hits = 0;          // allocations served from a free-list
  uint64_t misses = 0;        // allocations that hit the system allocator
  uint64_t alloc_bytes = 0;   // total fresh bytes fetched from the system
  uint64_t cached_bytes = 0;  // bytes currently parked on free-lists
  uint64_t cached_blocks = 0;
};

/// Statistics of the calling thread's arena.
ArenaStats ThreadArenaStats();

/// Releases every cached block of the calling thread's arena back to the
/// system. Subsequent allocations miss until the lists re-warm. Returns
/// the number of bytes released.
uint64_t TrimThreadArena();

/// STL-compatible allocator over the thread arena. Used for the autograd
/// graph's node storage, parent lists, and backward closures so tape
/// bookkeeping recycles like tensor data does.
template <typename T>
struct ArenaStlAllocator {
  using value_type = T;
  ArenaStlAllocator() noexcept = default;
  template <typename U>
  ArenaStlAllocator(const ArenaStlAllocator<U>&) noexcept {}
  T* allocate(size_t n) {
    return static_cast<T*>(ArenaAlloc(n * sizeof(T)));
  }
  void deallocate(T* p, size_t n) noexcept {
    ArenaFree(p, n * sizeof(T));
  }
  template <typename U>
  bool operator==(const ArenaStlAllocator<U>&) const noexcept {
    return true;
  }
  template <typename U>
  bool operator!=(const ArenaStlAllocator<U>&) const noexcept {
    return false;
  }
};

/// Shorthand for an arena-backed std::vector.
template <typename T>
using ArenaVector = std::vector<T, ArenaStlAllocator<T>>;

/// Arena-backed float storage underlying nn::Tensor. Value semantics
/// (deep copy), moves steal the block.
class FloatBuffer {
 public:
  FloatBuffer() = default;
  explicit FloatBuffer(size_t n) : n_(n) {
    if (n != 0) ptr_ = static_cast<float*>(ArenaAlloc(n * sizeof(float)));
  }
  FloatBuffer(const FloatBuffer& o) : FloatBuffer(o.n_) {
    if (n_ != 0) std::memcpy(ptr_, o.ptr_, n_ * sizeof(float));
  }
  FloatBuffer& operator=(const FloatBuffer& o) {
    if (this == &o) return *this;
    if (n_ != o.n_) {
      Release();
      n_ = o.n_;
      if (n_ != 0) ptr_ = static_cast<float*>(ArenaAlloc(n_ * sizeof(float)));
    }
    if (n_ != 0) std::memcpy(ptr_, o.ptr_, n_ * sizeof(float));
    return *this;
  }
  FloatBuffer(FloatBuffer&& o) noexcept : ptr_(o.ptr_), n_(o.n_) {
    o.ptr_ = nullptr;
    o.n_ = 0;
  }
  FloatBuffer& operator=(FloatBuffer&& o) noexcept {
    if (this == &o) return *this;
    Release();
    ptr_ = std::exchange(o.ptr_, nullptr);
    n_ = std::exchange(o.n_, 0);
    return *this;
  }
  ~FloatBuffer() { Release(); }

  float* data() { return ptr_; }
  const float* data() const { return ptr_; }
  size_t size() const { return n_; }
  bool empty() const { return n_ == 0; }
  float& operator[](size_t i) { return ptr_[i]; }
  float operator[](size_t i) const { return ptr_[i]; }

  void Fill(float v) {
    if (n_ == 0) return;
    if (v == 0.0f) {
      std::memset(ptr_, 0, n_ * sizeof(float));
    } else {
      for (size_t i = 0; i < n_; ++i) ptr_[i] = v;
    }
  }

 private:
  void Release() noexcept {
    if (ptr_ != nullptr) ArenaFree(ptr_, n_ * sizeof(float));
    ptr_ = nullptr;
    n_ = 0;
  }
  float* ptr_ = nullptr;
  size_t n_ = 0;
};

/// Move-only type-erased callable whose captures live inline or in the
/// arena — the std::function replacement for backward closures, which
/// would otherwise heap-allocate once per recorded op.
template <typename Sig>
class ArenaFn;

template <typename R, typename... Args>
class ArenaFn<R(Args...)> {
  static constexpr size_t kInlineBytes = 160;

 public:
  ArenaFn() = default;

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, ArenaFn>>>
  ArenaFn(F&& f) {  // NOLINT(google-explicit-constructor)
    using Fn = std::decay_t<F>;
    if constexpr (sizeof(Fn) <= kInlineBytes &&
                  alignof(Fn) <= alignof(std::max_align_t)) {
      new (inline_) Fn(std::forward<F>(f));
      target_ = inline_;
    } else {
      target_ = ArenaAlloc(sizeof(Fn));
      new (target_) Fn(std::forward<F>(f));
      heap_bytes_ = sizeof(Fn);
    }
    invoke_ = [](void* t, Args... args) -> R {
      return (*static_cast<Fn*>(t))(std::forward<Args>(args)...);
    };
    destroy_ = [](void* t) { static_cast<Fn*>(t)->~Fn(); };
    relocate_ = [](void* dst, void* src) {
      new (dst) Fn(std::move(*static_cast<Fn*>(src)));
      static_cast<Fn*>(src)->~Fn();
    };
  }

  ArenaFn(ArenaFn&& o) noexcept { MoveFrom(o); }
  ArenaFn& operator=(ArenaFn&& o) noexcept {
    if (this == &o) return *this;
    Reset();
    MoveFrom(o);
    return *this;
  }
  ArenaFn(const ArenaFn&) = delete;
  ArenaFn& operator=(const ArenaFn&) = delete;
  ~ArenaFn() { Reset(); }

  explicit operator bool() const { return invoke_ != nullptr; }

  R operator()(Args... args) const {
    return invoke_(target_, std::forward<Args>(args)...);
  }

 private:
  void Reset() noexcept {
    if (invoke_ == nullptr) return;
    destroy_(target_);
    if (heap_bytes_ != 0) ArenaFree(target_, heap_bytes_);
    invoke_ = nullptr;
    destroy_ = nullptr;
    relocate_ = nullptr;
    target_ = nullptr;
    heap_bytes_ = 0;
  }
  void MoveFrom(ArenaFn& o) noexcept {
    if (o.invoke_ == nullptr) return;
    invoke_ = o.invoke_;
    destroy_ = o.destroy_;
    relocate_ = o.relocate_;
    heap_bytes_ = o.heap_bytes_;
    if (o.heap_bytes_ != 0) {
      target_ = o.target_;  // steal the arena block
    } else {
      relocate_(inline_, o.inline_);
      target_ = inline_;
    }
    o.invoke_ = nullptr;
    o.destroy_ = nullptr;
    o.relocate_ = nullptr;
    o.target_ = nullptr;
    o.heap_bytes_ = 0;
  }

  alignas(std::max_align_t) unsigned char inline_[kInlineBytes];
  void* target_ = nullptr;
  size_t heap_bytes_ = 0;
  R (*invoke_)(void*, Args...) = nullptr;
  void (*destroy_)(void*) = nullptr;
  void (*relocate_)(void*, void*) = nullptr;
};

}  // namespace tpr::kern

#endif  // TPR_KERN_ARENA_H_
