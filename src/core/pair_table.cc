#include "core/pair_table.h"

#include <algorithm>

#include "core/checkpoint.h"

namespace crowdmax {

std::vector<PairTable::Slot> PairTable::Allocate(size_t capacity) {
  CROWDMAX_CHECK((capacity & (capacity - 1)) == 0);
  std::vector<Slot> old = std::move(slots_);
  slots_.assign(capacity, Slot{});
  mask_ = capacity - 1;
  shift_ = 64;
  for (size_t c = capacity; c > 1; c >>= 1) --shift_;
  epoch_ = 1;
  size_ = 0;
  return old;
}

void PairTable::Rehash(size_t capacity) {
  const uint32_t old_epoch = epoch_;
  const std::vector<Slot> old = Allocate(capacity);
  for (const Slot& slot : old) {
    if (slot.epoch == old_epoch) Insert(slot.key, slot.value);
  }
}

void PairTable::RebuildFromPrefix(size_t kept, int64_t additional) {
  const std::vector<Slot> old = Allocate(
      CapacityFor(kept + static_cast<size_t>(additional), kInitialCapacity));
  for (size_t i = 0; i < kept; ++i) Insert(old[i].key, old[i].value);
}

std::vector<std::pair<uint64_t, ElementId>> PairTable::SortedEntries() const {
  std::vector<std::pair<uint64_t, ElementId>> entries;
  entries.reserve(static_cast<size_t>(size_));
  ForEach([&entries](uint64_t key, ElementId value) {
    entries.emplace_back(key, value);
  });
  std::sort(entries.begin(), entries.end());
  return entries;
}

void SavePairTable(CheckpointWriter* writer, const PairTable& table) {
  const auto entries = table.SortedEntries();
  writer->WriteU64(static_cast<uint64_t>(entries.size()));
  for (const auto& [key, value] : entries) {
    writer->WriteI64(static_cast<int64_t>(key));
    writer->WriteI64(static_cast<int64_t>(value));
  }
}

void LoadPairTable(CheckpointReader* reader, PairTable* table) {
  table->Clear();
  const uint64_t n = reader->ReadCount(16);
  for (uint64_t i = 0; i < n && reader->status().ok(); ++i) {
    const uint64_t key = static_cast<uint64_t>(reader->ReadI64());
    const ElementId value = static_cast<ElementId>(reader->ReadI64());
    table->Set(key, value);
  }
}

}  // namespace crowdmax
