// 64-byte-aligned heap buffer used for matrix storage.
//
// The SRGEMM microkernel vectorises over contiguous rows; cache-line
// alignment keeps tile loads from splitting lines and makes performance
// measurements stable.
//
// Buffers of at least kMapBytes are mapped from the OS directly and
// unmapped on release. Through malloc, freeing such a block raises
// glibc's mmap threshold to its size, after which same-sized matrices are
// carved from the allocating thread's arena and stay resident there once
// freed: a process running solve after solve on fresh rank and pool
// threads then holds far more than one solve needs.
#pragma once

#include <cstddef>
#include <cstdlib>
#include <new>
#include <utility>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/mman.h>
#endif

#include "util/check.hpp"

namespace parfw {

/// Owning, 64-byte aligned, fixed-size array of trivially-destructible T.
/// Move-only (a matrix handle owns exactly one allocation).
template <typename T>
class AlignedBuffer {
  static constexpr std::size_t kAlign = 64;

 public:
  AlignedBuffer() = default;

  explicit AlignedBuffer(std::size_t n) : size_(n) {
    if (n == 0) return;
    const std::size_t bytes = bytes_of(n);
#if defined(__unix__) || defined(__APPLE__)
    if (bytes >= kMapBytes) {
      void* p = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                       MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
      if (p == MAP_FAILED) throw std::bad_alloc();
      data_ = static_cast<T*>(p);
      return;
    }
#endif
    data_ = static_cast<T*>(std::aligned_alloc(kAlign, bytes));
    if (data_ == nullptr) throw std::bad_alloc();
  }

  AlignedBuffer(AlignedBuffer&& other) noexcept
      : data_(std::exchange(other.data_, nullptr)),
        size_(std::exchange(other.size_, 0)) {}

  AlignedBuffer& operator=(AlignedBuffer&& other) noexcept {
    if (this != &other) {
      release();
      data_ = std::exchange(other.data_, nullptr);
      size_ = std::exchange(other.size_, 0);
    }
    return *this;
  }

  AlignedBuffer(const AlignedBuffer&) = delete;
  AlignedBuffer& operator=(const AlignedBuffer&) = delete;

  ~AlignedBuffer() { release(); }

  T* data() noexcept { return data_; }
  const T* data() const noexcept { return data_; }
  std::size_t size() const noexcept { return size_; }
  bool empty() const noexcept { return size_ == 0; }

  T& operator[](std::size_t i) noexcept { return data_[i]; }
  const T& operator[](std::size_t i) const noexcept { return data_[i]; }

 private:
  static constexpr std::size_t kMapBytes = std::size_t{1} << 20;

  static std::size_t bytes_of(std::size_t n) {
    return (n * sizeof(T) + kAlign - 1) / kAlign * kAlign;
  }

  void release() noexcept {
#if defined(__unix__) || defined(__APPLE__)
    if (data_ != nullptr && bytes_of(size_) >= kMapBytes) {
      ::munmap(data_, bytes_of(size_));
      data_ = nullptr;
      size_ = 0;
      return;
    }
#endif
    std::free(data_);
    data_ = nullptr;
    size_ = 0;
  }

  T* data_ = nullptr;
  std::size_t size_ = 0;
};

}  // namespace parfw
