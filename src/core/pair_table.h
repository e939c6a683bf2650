// Open-addressed flat hash table over packed pair keys.
//
// The engine memo cache and the worker models' sticky-answer tables used
// to be std::unordered_map<uint64_t, ElementId>: one heap node per pair,
// pointer-chasing on every probe, and a full rehash-scale teardown on
// clear(). PairTable replaces them with a single flat slot array (linear
// probing, power-of-two capacity) and an epoch-based Clear() that
// invalidates every slot in O(1) without releasing the arena — the
// "reset per round instead of rehashed" layout of DESIGN.md §14.
//
// Values are ElementIds and may be any int32, including the engine's -1
// in-flight reservation and kUnresolvedWinner (-2) parking sentinels;
// presence is tracked by the slot epoch, never by a value sentinel.
//
// Thread-safety: mutation is single-threaded like the maps it replaces.
// Concurrent Find() calls with no writer are safe (the parallel engine's
// read-only snapshot discipline during a round).
//
// Serialization: SavePairTable/LoadPairTable emit exactly the bytes of
// CheckpointWriter::WriteSortedMap over an equivalent unordered_map, so
// swapping the container changed no checkpoint golden.

#ifndef CROWDMAX_CORE_PAIR_TABLE_H_
#define CROWDMAX_CORE_PAIR_TABLE_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "common/check.h"
#include "core/instance.h"

namespace crowdmax {

class CheckpointReader;
class CheckpointWriter;

class PairTable {
 public:
  PairTable() { Rehash(kInitialCapacity); }

  /// Pointer to the value stored under `key`, or nullptr when absent. The
  /// pointer is invalidated by any mutation.
  ElementId* Find(uint64_t key) {
    Slot* slot = Probe(key);
    return slot->epoch == epoch_ ? &slot->value : nullptr;
  }
  const ElementId* Find(uint64_t key) const {
    const Slot* slot = const_cast<PairTable*>(this)->Probe(key);
    return slot->epoch == epoch_ ? &slot->value : nullptr;
  }

  /// Hints the memory system to fetch the slot `key` probes first; no
  /// effect on contents. Lets a caller walking many keys overlap the
  /// cache misses of a table larger than the CPU caches.
  void Prefetch(uint64_t key) const {
    __builtin_prefetch(&slots_[HomeIndex(key)]);
  }

  /// Inserts `value` under `key` when absent; returns the slot value
  /// pointer either way and reports which through `inserted` (may be
  /// null). The unordered_map::emplace shape the engine's barrier merge
  /// needs.
  ElementId* Insert(uint64_t key, ElementId value, bool* inserted = nullptr) {
    MaybeGrow();
    Slot* slot = Probe(key);
    const bool fresh = slot->epoch != epoch_;
    if (fresh) {
      slot->key = key;
      slot->value = value;
      slot->epoch = epoch_;
      ++size_;
    }
    if (inserted != nullptr) *inserted = fresh;
    return &slot->value;
  }

  /// Insert-or-assign.
  void Set(uint64_t key, ElementId value) {
    bool inserted = false;
    ElementId* slot = Insert(key, value, &inserted);
    if (!inserted) *slot = value;
  }

  /// Grows the arena now so the next `additional` Insert calls cannot
  /// rehash — which pins slot pointers for that window. The worker
  /// models' two-pass batch walks rely on this: pass 1 reserves, inserts
  /// and caches slot pointers; pass 2 writes through them draw by draw.
  void Reserve(int64_t additional) {
    CROWDMAX_DCHECK(additional >= 0);
    const size_t capacity =
        CapacityFor(static_cast<size_t>(size_ + additional), slots_.size());
    if (capacity != slots_.size()) Rehash(capacity);
  }

  /// Rebuilds the table keeping only the entries for which
  /// `keep(key, value)` holds, on a fresh arena sized so that the next
  /// `additional` Insert calls cannot rehash (which pins slot pointers for
  /// that window, like Reserve). The arena shrinks when most entries go.
  /// Returns the number of entries dropped. The engine's live-pair memo
  /// rebuild at round start (DESIGN.md §14).
  template <typename Keep>
  int64_t Retain(Keep&& keep, int64_t additional) {
    CROWDMAX_DCHECK(additional >= 0);
    // Compact the kept entries to the front of the old arena (index never
    // passes the read cursor), then reinsert them into the new one.
    size_t kept = 0;
    for (const Slot& slot : slots_) {
      if (slot.epoch == epoch_ && keep(slot.key, slot.value)) {
        slots_[kept++] = slot;
      }
    }
    const int64_t dropped = size_ - static_cast<int64_t>(kept);
    RebuildFromPrefix(kept, additional);
    return dropped;
  }

  /// Drops every entry in O(1) by bumping the epoch; capacity (the arena)
  /// is retained, so per-round resets never rehash.
  void Clear() {
    ++epoch_;
    size_ = 0;
    if (epoch_ == 0) {
      // Epoch counter wrapped (2^32 clears): hard-reset the slots so stale
      // epochs cannot read as live.
      for (Slot& slot : slots_) slot.epoch = kDeadEpoch;
      epoch_ = 1;
    }
  }

  int64_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  /// Entries sorted by key — the canonical order for serialization and
  /// deterministic iteration.
  std::vector<std::pair<uint64_t, ElementId>> SortedEntries() const;

  /// Visits every live entry in unspecified order.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (const Slot& slot : slots_) {
      if (slot.epoch == epoch_) fn(slot.key, slot.value);
    }
  }

 private:
  struct Slot {
    uint64_t key = 0;
    ElementId value = 0;
    uint32_t epoch = kDeadEpoch;
  };

  static constexpr size_t kInitialCapacity = 64;  // Power of two.
  static constexpr uint32_t kDeadEpoch = 0;

  // Start of `key`'s probe chain. Fibonacci-hashes the key so packed pairs
  // (dense ids in both words) spread over the power-of-two table.
  size_t HomeIndex(uint64_t key) const {
    return static_cast<size_t>((key * 0x9e3779b97f4a7c15ULL) >> shift_);
  }

  // First slot whose key matches, else the first free slot of the probe
  // chain.
  Slot* Probe(uint64_t key) {
    size_t index = HomeIndex(key);
    while (true) {
      Slot& slot = slots_[index];
      if (slot.epoch != epoch_ || slot.key == key) return &slot;
      index = (index + 1) & mask_;
    }
  }

  void MaybeGrow() {
    // Grow at 7/8 load so probe chains stay short.
    if (static_cast<size_t>(size_) + 1 >
        slots_.size() - (slots_.size() >> 3)) {
      Rehash(slots_.size() * 2);
    }
  }

  // Smallest power of two >= `floor` whose 7/8 load ceiling (MaybeGrow's)
  // holds `needed` entries.
  static size_t CapacityFor(size_t needed, size_t floor) {
    size_t capacity = floor;
    while (needed > capacity - (capacity >> 3)) capacity *= 2;
    return capacity;
  }

  // Fresh empty arena of `capacity` slots; returns the old one.
  std::vector<Slot> Allocate(size_t capacity);
  void Rehash(size_t capacity);
  // Rebuilds from the first `kept` slots of the current arena (all live
  // entries, compacted there by Retain).
  void RebuildFromPrefix(size_t kept, int64_t additional);

  friend class PairTableTestPeer;  // Forces the epoch wrap in tests.

  std::vector<Slot> slots_;
  size_t mask_ = 0;
  int shift_ = 0;  // 64 - log2(capacity), for the multiplicative hash.
  uint32_t epoch_ = 1;
  int64_t size_ = 0;
};

/// Canonical checkpoint serialization: byte-identical to
/// CheckpointWriter::WriteSortedMap over an unordered_map with the same
/// entries (U64 count, then sorted (I64 key, I64 value) pairs).
void SavePairTable(CheckpointWriter* writer, const PairTable& table);
void LoadPairTable(CheckpointReader* reader, PairTable* table);

}  // namespace crowdmax

#endif  // CROWDMAX_CORE_PAIR_TABLE_H_
