// Bounded FIFO used for hardware queues (offload queue, SSR data FIFOs,
// chain FIFO models). Capacity fixed at construction; overflow is a modeling
// bug and asserts. Implemented as a ring buffer over preallocated storage so
// push/pop are O(1) and the simulation hot loop never allocates. The
// storage rounds up to a power of two so indices wrap by mask; capacity,
// full() and order do not depend on it.
#pragma once

#include <bit>
#include <cassert>
#include <cstddef>
#include <utility>
#include <vector>

namespace sch {

template <typename T>
class FixedQueue {
 public:
  explicit FixedQueue(std::size_t capacity)
      : storage_(std::bit_ceil(capacity)),
        capacity_(capacity),
        mask_(storage_.size() - 1) {
    assert(capacity_ > 0);
  }

  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] bool full() const { return size_ >= capacity_; }
  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] std::size_t capacity() const { return capacity_; }

  void push(T value) {
    if (full()) {
      // Modeling bug: drop rather than overwrite the head in release
      // builds, where the assert compiles out.
      assert(false && "FixedQueue overflow");
      return;
    }
    storage_[wrap(head_ + size_)] = std::move(value);
    ++size_;
  }

  [[nodiscard]] const T& front() const {
    assert(!empty());
    return storage_[head_];
  }

  [[nodiscard]] T& front() {
    assert(!empty());
    return storage_[head_];
  }

  T pop() {
    assert(!empty());
    T v = std::move(storage_[head_]);
    head_ = wrap(head_ + 1);
    --size_;
    return v;
  }

  void clear() {
    head_ = 0;
    size_ = 0;
  }

  /// Read-only access for trace/debug dumps (index 0 = head).
  [[nodiscard]] const T& at(std::size_t i) const {
    assert(i < size_);
    return storage_[wrap(head_ + i)];
  }

 private:
  [[nodiscard]] std::size_t wrap(std::size_t i) const { return i & mask_; }

  std::vector<T> storage_;
  std::size_t capacity_;
  std::size_t mask_;
  std::size_t head_ = 0;
  std::size_t size_ = 0;
};

} // namespace sch
