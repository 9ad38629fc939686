#include "storage/node_store.h"

#include <algorithm>
#include <utility>

namespace blas {

namespace {

/// Flushes a scan's visited-element count into the store-wide atomic and
/// the current thread's counter scope. One add per scan instead of one
/// atomic RMW per record keeps the hot loop cheap.
void CountVisited(std::atomic<uint64_t>* total, uint64_t visited) {
  if (visited == 0) return;
  total->fetch_add(visited, std::memory_order_relaxed);
  if (ReadCounters* counters = ReadCounterScope::Current()) {
    counters->elements += visited;
  }
}

}  // namespace

NodeStore::NodeStore(const std::vector<NodeRecord>& records,
                     size_t cache_pages, size_t cache_shards)
    : pool_(cache_pages, cache_shards), count_(records.size()) {
  // Bulk loading allocates each tree's pages in one contiguous run, so
  // recording the pool size around every Build captures the page range
  // the BLASIDX2 segment directory needs.
  auto capture = [this](const auto& tree, size_t first) {
    BPlusTreeMeta meta;
    meta.root = tree.root();
    meta.first_leaf = tree.first_leaf();
    meta.size = tree.size();
    meta.height = tree.height();
    meta.first_page = static_cast<PageId>(first);
    meta.page_count = static_cast<uint32_t>(pool_.page_count() - first);
    return meta;
  };
  std::vector<NodeRecord> sorted = records;
  std::sort(sorted.begin(), sorted.end(),
            [](const NodeRecord& a, const NodeRecord& b) {
              return SpKeyOf::Get(a) < SpKeyOf::Get(b);
            });
  size_t first = pool_.page_count();
  sp_.Build(&pool_, sorted);
  tree_metas_[0] = capture(sp_, first);
  std::sort(sorted.begin(), sorted.end(),
            [](const NodeRecord& a, const NodeRecord& b) {
              return SdKeyOf::Get(a) < SdKeyOf::Get(b);
            });
  first = pool_.page_count();
  sd_.Build(&pool_, sorted);
  tree_metas_[1] = capture(sd_, first);
  std::sort(sorted.begin(), sorted.end(),
            [](const NodeRecord& a, const NodeRecord& b) {
              return ValKeyOf::Get(a) < ValKeyOf::Get(b);
            });
  first = pool_.page_count();
  vindex_.Build(&pool_, sorted);
  tree_metas_[2] = capture(vindex_, first);
  std::sort(sorted.begin(), sorted.end(),
            [](const NodeRecord& a, const NodeRecord& b) {
              return StartKeyOf::Get(a) < StartKeyOf::Get(b);
            });
  first = pool_.page_count();
  doc_.Build(&pool_, sorted);
  tree_metas_[3] = capture(doc_, first);
  tree_pages_ = pool_.page_count();
}

NodeStore::NodeStore(PagedFile file, const PagedStoreMeta& meta,
                     const StorageOptions& options)
    : pool_(std::move(file), options),
      tree_metas_{meta.sp, meta.sd, meta.value, meta.doc},
      count_(meta.record_count),
      tree_pages_(meta.tree_pages) {
  sp_.Attach(&pool_, meta.sp.root, meta.sp.first_leaf, meta.sp.size,
             meta.sp.height);
  sd_.Attach(&pool_, meta.sd.root, meta.sd.first_leaf, meta.sd.size,
             meta.sd.height);
  vindex_.Attach(&pool_, meta.value.root, meta.value.first_leaf,
                 meta.value.size, meta.value.height);
  doc_.Attach(&pool_, meta.doc.root, meta.doc.first_leaf, meta.doc.size,
              meta.doc.height);
}

PagedStoreMeta NodeStore::paged_meta() const {
  PagedStoreMeta meta;
  meta.sp = tree_metas_[0];
  meta.sd = tree_metas_[1];
  meta.value = tree_metas_[2];
  meta.doc = tree_metas_[3];
  meta.record_count = count_;
  meta.tree_pages = tree_pages_;
  return meta;
}

void NodeStore::ScanPlabelRange(const PLabelRange& range,
                                std::optional<uint32_t> data,
                                std::optional<int32_t> level,
                                std::vector<NodeRecord>* out) const {
  if (range.empty()) return;
  uint64_t visited = 0;
  auto it = sp_.Seek(SpKey{range.lo, 0});
  ReadaheadFrom(sp_, it.page());
  for (; !it.at_end(); ++it) {
    const NodeRecord& rec = *it;
    if (rec.plabel > range.hi) break;
    ++visited;
    if (data.has_value() && rec.data != *data) continue;
    if (level.has_value() && rec.level != *level) continue;
    out->push_back(rec);
  }
  CountVisited(&elements_, visited);
}

std::vector<NodeRecord> NodeStore::ScanTag(TagId tag,
                                           std::optional<uint32_t> data) const {
  std::vector<NodeRecord> out;
  uint64_t visited = 0;
  auto it = sd_.Seek(SdKey{tag, 0});
  ReadaheadFrom(sd_, it.page());
  for (; !it.at_end(); ++it) {
    const NodeRecord& rec = *it;
    if (rec.tag != tag) break;
    ++visited;
    if (data.has_value() && rec.data != *data) continue;
    out.push_back(rec);
  }
  CountVisited(&elements_, visited);
  return out;
}

std::vector<NodeRecord> NodeStore::ScanAll(
    std::optional<uint32_t> data) const {
  std::vector<NodeRecord> out;
  uint64_t visited = 0;
  auto it = sd_.Begin();
  ReadaheadFrom(sd_, it.page());
  for (; !it.at_end(); ++it) {
    const NodeRecord& rec = *it;
    ++visited;
    if (data.has_value() && rec.data != *data) continue;
    out.push_back(rec);
  }
  CountVisited(&elements_, visited);
  return out;
}

std::vector<NodeRecord> NodeStore::ScanValue(uint32_t data) const {
  std::vector<NodeRecord> out;
  uint64_t visited = 0;
  auto it = vindex_.Seek(ValKey{data, 0});
  ReadaheadFrom(vindex_, it.page());
  for (; !it.at_end(); ++it) {
    const NodeRecord& rec = *it;
    if (rec.data != data) break;
    ++visited;
    out.push_back(rec);
  }
  CountVisited(&elements_, visited);
  return out;
}

std::optional<NodeRecord> NodeStore::FindByStart(uint32_t start) const {
  auto it = doc_.Seek(start);
  if (it.at_end() || it->start != start) return std::nullopt;
  CountVisited(&elements_, 1);
  return *it;
}

NodeStore::TagScan::TagScan(const NodeStore* store, TagId tag)
    : ScanBase(store, store->sd_.Seek(SdKey{tag, 0})), tag_(tag) {
  // Cold-start hint: one ranged readahead over the leaf run this cursor
  // is about to stream, instead of faulting page-by-page.
  store->ReadaheadFrom(store->sd_, it_.page());
}

const NodeRecord* NodeStore::TagScan::Next() {
  if (it_.at_end() || it_->tag != tag_) return nullptr;
  return Step();
}

NodeStore::DocScan::DocScan(const NodeStore* store, uint32_t lo, uint32_t hi)
    : ScanBase(store, store->doc_.Seek(lo)), hi_(hi) {
  store->ReadaheadFrom(store->doc_, it_.page());
}

const NodeRecord* NodeStore::DocScan::Next() {
  if (it_.at_end() || it_->start > hi_) return nullptr;
  return Step();
}

StorageStats NodeStore::stats() const {
  StorageStats s;
  s.elements = elements_.load(std::memory_order_relaxed);
  BufferPool::Stats pool_stats = pool_.stats();
  s.page_fetches = pool_stats.fetches;
  s.page_misses = pool_stats.misses;
  s.io_reads = pool_stats.io_reads;
  return s;
}

void NodeStore::ResetStats() {
  elements_.store(0, std::memory_order_relaxed);
  pool_.ResetStats();
}

}  // namespace blas
