#pragma once

// A vector with inline storage for at most N elements: it never touches the
// heap. The caller guarantees the bound; pushing past it is a precondition
// violation. Network selection keeps the few MNOs of one country in these
// (topology::kMaxMnosPerCountry, enforced when an MNO is registered).

#include <array>
#include <cassert>
#include <cstddef>

namespace wtr::util {

template <typename T, std::size_t N>
class InlineVector {
 public:
  void push_back(const T& value) noexcept {
    assert(size_ < N);
    items_[size_++] = value;
  }

  /// Remove the element at `index`; the rest keep their order.
  void erase(std::size_t index) noexcept {
    assert(index < size_);
    for (std::size_t i = index + 1; i < size_; ++i) items_[i - 1] = items_[i];
    --size_;
  }

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  [[nodiscard]] T* data() noexcept { return items_.data(); }
  [[nodiscard]] const T* data() const noexcept { return items_.data(); }
  [[nodiscard]] T* begin() noexcept { return data(); }
  [[nodiscard]] T* end() noexcept { return data() + size_; }
  [[nodiscard]] const T* begin() const noexcept { return data(); }
  [[nodiscard]] const T* end() const noexcept { return data() + size_; }
  [[nodiscard]] T& operator[](std::size_t i) noexcept { return items_[i]; }
  [[nodiscard]] const T& operator[](std::size_t i) const noexcept { return items_[i]; }
  [[nodiscard]] const T& front() const noexcept { return items_[0]; }
  [[nodiscard]] const T& back() const noexcept { return items_[size_ - 1]; }

 private:
  std::array<T, N> items_{};
  std::size_t size_ = 0;
};

}  // namespace wtr::util
