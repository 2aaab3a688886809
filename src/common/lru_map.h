// LruMap — the tree's one bounded least-recently-used map. The Engine's memo
// maps (systems, compiled models, rebind sources) and the server's
// ResultCache all hold derived state that a long-lived process must not let
// grow without bound and that costs only a rebuild to lose; they share this
// one eviction mechanism and its eviction counter.
//
// Not thread-safe: every owner already serializes access under its own
// mutex.
#pragma once

#include <cstddef>
#include <cstdint>
#include <list>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>

namespace coc {

template <class Value>
class LruMap {
 public:
  /// `capacity` bounds the entry count; 0 = unbounded.
  explicit LruMap(std::size_t capacity = 0) : capacity_(capacity) {}
  LruMap(const LruMap&) = delete;
  LruMap& operator=(const LruMap&) = delete;

  /// The value under `key`, touched to most recently used; nullptr when
  /// absent.
  Value* Find(std::string_view key) {
    const auto it = index_.find(key);
    if (it == index_.end()) return nullptr;
    order_.splice(order_.begin(), order_, it->second);
    return &it->second->second;
  }

  /// Inserts `value` under `key` as the most recently used entry and evicts
  /// least-recently-used entries past the capacity. A key already present
  /// keeps its resident value (touched; `value` is dropped), so the first
  /// of two racing inserts wins. Returns the resident value.
  Value& Insert(std::string key, Value value) {
    if (Value* resident = Find(key)) return *resident;
    order_.emplace_front(std::move(key), std::move(value));
    index_.emplace(order_.front().first, order_.begin());
    while (capacity_ > 0 && order_.size() > capacity_) {
      index_.erase(order_.back().first);
      order_.pop_back();
      ++evictions_;
    }
    return order_.front().second;
  }

  std::size_t size() const { return order_.size(); }
  std::size_t capacity() const { return capacity_; }
  /// Entries dropped by the capacity bound so far.
  std::uint64_t evictions() const { return evictions_; }

  /// (key, value) pairs, most recently used first.
  auto begin() const { return order_.cbegin(); }
  auto end() const { return order_.cend(); }

 private:
  using Node = std::pair<std::string, Value>;
  const std::size_t capacity_;
  std::list<Node> order_;  ///< front = most recently used
  /// Views of the nodes' own keys: list nodes never move, so each key is
  /// stored once.
  std::unordered_map<std::string_view, typename std::list<Node>::iterator>
      index_;
  std::uint64_t evictions_ = 0;
};

}  // namespace coc
