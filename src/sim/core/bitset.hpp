// Packed per-node bitmaps for the structure-of-arrays memory plan.
//
// PackedBits is a word-granularity bitmap over the node id space.  The
// engines keep one bit per node for the states their sweeps care about
// (Active in NodeStore, awake in WakeSet, inbox-nonempty in InboxSlab) so
// a step's tick sweep scans 64 nodes per word load and skips runs of
// idle/done/sleeping nodes entirely (docs/PERF.md §6).
//
// Thread-safety contract (sharded engine): shard blocks are 64-node-
// aligned, so two shards never touch the same word.  No atomics needed.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/check.hpp"
#include "common/types.hpp"

namespace cg {

class PackedBits {
 public:
  void reset(NodeId n) {
    n_ = n;
    words_.assign(word_count(n), 0);
  }

  NodeId size() const { return n_; }

  void set(NodeId i) { words_[word(i)] |= bit(i); }
  void clear(NodeId i) { words_[word(i)] &= ~bit(i); }
  bool test(NodeId i) const { return (words_[word(i)] & bit(i)) != 0; }

  /// Visit every set bit in [lo, hi) in increasing order.  Scans whole
  /// words and uses countr_zero within a word, so sparse ranges cost
  /// ~range/64 loads.
  template <class Fn>
  void for_each_set(NodeId lo, NodeId hi, Fn&& fn) const {
    scan(lo, hi, [this](std::size_t w) { return words_[w]; }, fn);
  }

  /// Visit every bit set in BOTH this and `other` within [lo, hi), in
  /// increasing order.  Word-wise AND, so a sweep over "active AND
  /// awake" costs the same ~range/64 loads as a plain sweep (both
  /// engines' tick sweeps use this to skip sleeping nodes).  `other` must
  /// cover the range.
  template <class Fn>
  void for_each_set_and(const PackedBits& other, NodeId lo, NodeId hi,
                        Fn&& fn) const {
    scan(lo, hi,
         [&](std::size_t w) { return words_[w] & other.words_[w]; }, fn);
  }

  std::size_t footprint_bytes() const {
    return words_.capacity() * sizeof(std::uint64_t);
  }

 private:
  /// Each word is read only once the previous word's callbacks ran, so a
  /// callback may clear bits it has been handed.
  template <class WordAt, class Fn>
  void scan(NodeId lo, NodeId hi, WordAt&& word_at, Fn&& fn) const {
    if (lo >= hi) return;
    std::size_t w = word(lo);
    const std::size_t w_end = word(hi - 1);
    std::uint64_t bits =
        word_at(w) & (~0ULL << (static_cast<unsigned>(lo) & 63));
    for (;;) {
      if (w == w_end)
        bits &= ~0ULL >> (63 - (static_cast<unsigned>(hi - 1) & 63));
      while (bits != 0) {
        const int b = std::countr_zero(bits);
        bits &= bits - 1;
        fn(static_cast<NodeId>(w * 64 + static_cast<std::size_t>(b)));
      }
      if (w == w_end) break;
      bits = word_at(++w);
    }
  }

  static std::size_t word_count(NodeId n) {
    return (static_cast<std::size_t>(n) + 63) / 64;
  }
  static std::size_t word(NodeId i) { return static_cast<std::size_t>(i) / 64; }
  static std::uint64_t bit(NodeId i) {
    return 1ULL << (static_cast<unsigned>(i) & 63);
  }

  NodeId n_ = 0;
  std::vector<std::uint64_t> words_;
};

}  // namespace cg
