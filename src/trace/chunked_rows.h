// Append-only row table held in fixed chunks of 2^16 rows. The largest
// trace table (pod running records, ~3.8M rows and ~390 MB on a 6-hour
// 1,000-host run) grows one chunk at a time instead of doubling a vector:
// existing rows never move, nothing is copied on growth, and a chunk's
// memory is first touched by whoever writes its rows. Grow(n) reserves n
// uninitialized rows at once so that a ShardCrew::ParallelFor can write
// row base + i in place, spreading the page faults across lanes
// (DESIGN.md §8 "Pod-usage record path").
#ifndef OPTUM_SRC_TRACE_CHUNKED_ROWS_H_
#define OPTUM_SRC_TRACE_CHUNKED_ROWS_H_

#include <algorithm>
#include <cstddef>
#include <iterator>
#include <memory>
#include <type_traits>
#include <utility>
#include <vector>

namespace optum {

template <typename Row>
class ChunkedRows {
  // Rows are written into uninitialized storage and freed without
  // destruction, so they must be plain data.
  static_assert(std::is_trivially_copyable_v<Row>);
  static_assert(std::is_trivially_destructible_v<Row>);

  template <bool kConst>
  class Iter {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = Row;
    using difference_type = std::ptrdiff_t;
    using pointer = std::conditional_t<kConst, const Row*, Row*>;
    using reference = std::conditional_t<kConst, const Row&, Row&>;
    using Owner = std::conditional_t<kConst, const ChunkedRows, ChunkedRows>;

    Iter() = default;
    Iter(Owner* rows, size_t i) : rows_(rows), i_(i) {}

    reference operator*() const { return (*rows_)[i_]; }
    pointer operator->() const { return &(*rows_)[i_]; }
    Iter& operator++() {
      ++i_;
      return *this;
    }
    Iter operator++(int) {
      Iter old = *this;
      ++i_;
      return old;
    }
    bool operator==(const Iter& other) const { return i_ == other.i_; }

   private:
    Owner* rows_ = nullptr;
    size_t i_ = 0;
  };

 public:
  static constexpr size_t kChunkBits = 16;
  static constexpr size_t kChunkRows = size_t{1} << kChunkBits;

  using iterator = Iter<false>;
  using const_iterator = Iter<true>;

  ChunkedRows() = default;
  ChunkedRows(const ChunkedRows& other) {
    Grow(other.size_);
    for (size_t c = 0; c < chunks_.size(); ++c) {
      std::copy_n(other.chunks_[c], std::min(kChunkRows, size_ - c * kChunkRows),
                  chunks_[c]);
    }
  }
  ChunkedRows(ChunkedRows&& other) noexcept
      : chunks_(std::move(other.chunks_)), size_(std::exchange(other.size_, 0)) {}
  ChunkedRows& operator=(ChunkedRows other) noexcept {
    std::swap(chunks_, other.chunks_);
    std::swap(size_, other.size_);
    return *this;
  }
  ~ChunkedRows() {
    std::allocator<Row> alloc;
    for (Row* chunk : chunks_) {
      alloc.deallocate(chunk, kChunkRows);
    }
  }

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  Row& operator[](size_t i) { return chunks_[i >> kChunkBits][i & (kChunkRows - 1)]; }
  const Row& operator[](size_t i) const {
    return chunks_[i >> kChunkBits][i & (kChunkRows - 1)];
  }

  // Appends n rows and returns the index of the first. The new rows are
  // uninitialized: the caller writes every one of them (concurrently, if
  // each writer owns its indices) before reading any.
  size_t Grow(size_t n) {
    const size_t first = size_;
    const size_t chunks_needed = (first + n + kChunkRows - 1) >> kChunkBits;
    std::allocator<Row> alloc;
    while (chunks_.size() < chunks_needed) {
      chunks_.push_back(alloc.allocate(kChunkRows));
    }
    size_ = first + n;
    return first;
  }

  void push_back(const Row& row) { (*this)[Grow(1)] = row; }

  iterator begin() { return {this, 0}; }
  iterator end() { return {this, size_}; }
  const_iterator begin() const { return {this, 0}; }
  const_iterator end() const { return {this, size_}; }

 private:
  std::vector<Row*> chunks_;  // every chunk holds kChunkRows rows of storage
  size_t size_ = 0;
};

}  // namespace optum

#endif  // OPTUM_SRC_TRACE_CHUNKED_ROWS_H_
