#ifndef BLAS_STORAGE_NODE_STORE_H_
#define BLAS_STORAGE_NODE_STORE_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "labeling/node_record.h"
#include "storage/bptree.h"
#include "storage/buffer_pool.h"

namespace blas {

/// Composite key (plabel, start) of the SP relation (clustered order of
/// the paper's BLAS relation).
struct SpKey {
  PLabel plabel;
  uint32_t start;
  friend bool operator<(const SpKey& a, const SpKey& b) {
    if (a.plabel != b.plabel) return a.plabel < b.plabel;
    return a.start < b.start;
  }
};

/// Composite key (tag, start) of the SD relation (clustered order of the
/// D-labeling baseline relation).
struct SdKey {
  uint32_t tag;
  uint32_t start;
  friend bool operator<(const SdKey& a, const SdKey& b) {
    if (a.tag != b.tag) return a.tag < b.tag;
    return a.start < b.start;
  }
};

/// Composite key (data, start) of the secondary value index.
struct ValKey {
  uint32_t data;
  uint32_t start;
  friend bool operator<(const ValKey& a, const ValKey& b) {
    if (a.data != b.data) return a.data < b.data;
    return a.start < b.start;
  }
};

struct SpKeyOf {
  static SpKey Get(const NodeRecord& r) { return SpKey{r.plabel, r.start}; }
};
struct SdKeyOf {
  static SdKey Get(const NodeRecord& r) { return SdKey{r.tag, r.start}; }
};
struct ValKeyOf {
  static ValKey Get(const NodeRecord& r) { return ValKey{r.data, r.start}; }
};
struct StartKeyOf {
  static uint32_t Get(const NodeRecord& r) { return r.start; }
};

/// Per-query storage access counters. `elements` is the paper's "visited
/// elements"; page counters come from the buffer pool (`io_reads` are the
/// misses that cost a real disk read — paged stores only).
struct StorageStats {
  uint64_t elements = 0;
  uint64_t page_fetches = 0;
  uint64_t page_misses = 0;
  uint64_t io_reads = 0;

  StorageStats& operator+=(const StorageStats& o) {
    elements += o.elements;
    page_fetches += o.page_fetches;
    page_misses += o.page_misses;
    io_reads += o.io_reads;
    return *this;
  }
};

/// Persisted placement of one clustered B+-tree inside a paged snapshot:
/// the pool-relative page range it occupies plus the metadata needed to
/// reattach it without reading a single page.
struct BPlusTreeMeta {
  PageId root = kInvalidPage;
  PageId first_leaf = kInvalidPage;
  uint64_t size = 0;
  int32_t height = 0;
  /// First pool page id of this tree; the tree's pages are contiguous
  /// (bulk loading allocates them in one run).
  PageId first_page = 0;
  uint32_t page_count = 0;
};

/// Everything a paged NodeStore needs from the snapshot header.
struct PagedStoreMeta {
  BPlusTreeMeta sp, sd, value, doc;
  uint64_t record_count = 0;
  /// Pages occupied by the four trees (the pool may address further
  /// pages — the paged value dictionary lives in the same page space).
  uint64_t tree_pages = 0;
};

/// \brief The BLAS index store (section 4, index generator output).
///
/// Holds both physical designs the paper compares over one buffer pool:
///   * SP — clustered by {plabel, start} (BLAS),
///   * SD — clustered by {tag, start}   (D-labeling baseline),
/// plus a secondary value index clustered by {data, start} and a
/// document-order index clustered by {start} (point lookups and subtree
/// reconstruction for the cursor projection layer).
///
/// Two storage modes share all query paths: a build-time store keeps
/// every page in memory behind the miss-counting LRU, while a store
/// reopened from a BLASIDX2 snapshot (`NodeStore(PagedFile, ...)`) pages
/// on demand — construction is O(1) in document size and each miss is a
/// real disk read bounded by the StorageOptions memory budget.
///
/// All scans count every record they touch (including records later
/// rejected by a residual data/level filter), matching how the paper counts
/// visited elements.
///
/// Concurrency: all scan methods and `stats` are safe for concurrent
/// callers once construction finishes (the buffer pool shards its
/// latches; the element counter is atomic). Per-thread attribution of
/// visited elements and page accesses goes through ReadCounterScope.
class NodeStore {
 public:
  /// Builds all trees from the labeler output. `cache_pages` sizes the
  /// LRU cache of the shared buffer pool; `cache_shards` its latch
  /// sharding (0 = auto, 1 = exact global LRU; see BufferPool).
  explicit NodeStore(const std::vector<NodeRecord>& records,
                     size_t cache_pages = 1024, size_t cache_shards = 0);

  /// Reopens a persisted store against a snapshot file: the four trees
  /// attach to a demand-paging BufferPool sized by `options`; nothing is
  /// read until the first scan descends.
  NodeStore(PagedFile file, const PagedStoreMeta& meta,
            const StorageOptions& options);

  NodeStore(const NodeStore&) = delete;
  NodeStore& operator=(const NodeStore&) = delete;

  /// Appends the records with plabel in [range.lo, range.hi], optionally
  /// filtered by data id and/or exact level, to `out` in (plabel, start)
  /// order — a union of ranges fills one vector.
  void ScanPlabelRange(const PLabelRange& range, std::optional<uint32_t> data,
                       std::optional<int32_t> level,
                       std::vector<NodeRecord>* out) const;

  /// Records with the given tag (D-labeling access path), optionally
  /// filtered by data id. Result is ordered by start.
  std::vector<NodeRecord> ScanTag(TagId tag,
                                  std::optional<uint32_t> data =
                                      std::nullopt) const;

  /// Full scan of the SD relation (wildcard tag test), optional data
  /// filter. Ordered by (tag, start).
  std::vector<NodeRecord> ScanAll(std::optional<uint32_t> data =
                                      std::nullopt) const;

  /// Records with the given data id via the secondary value index.
  std::vector<NodeRecord> ScanValue(uint32_t data) const;

  /// The record at exactly `start` via the document-order index, or
  /// nullopt. Counts one visited element plus the tree descent's pages.
  std::optional<NodeRecord> FindByStart(uint32_t start) const;

  /// \brief Shared machinery of the incremental scans: a leaf iterator
  /// plus visited-element accounting.
  ///
  /// Pages are fetched as the scan advances, so an abandoned scan pays
  /// only for the prefix it consumed. Each advanced record counts as one
  /// visited element: added to the calling thread's ReadCounterScope as
  /// it happens (per-query attribution) and flushed to the store-wide
  /// counter in one batch on destruction.
  template <typename Key, typename KeyOf>
  class ScanBase {
   public:
    ScanBase(ScanBase&& o) noexcept
        : it_(std::move(o.it_)),
          store_(o.store_),
          rec_(o.rec_),
          visited_(o.visited_) {
      o.store_ = nullptr;
      o.visited_ = 0;
    }
    ScanBase& operator=(ScanBase&& o) noexcept {
      if (this != &o) {
        Flush();
        store_ = o.store_;
        it_ = std::move(o.it_);
        rec_ = o.rec_;
        visited_ = o.visited_;
        o.store_ = nullptr;
        o.visited_ = 0;
      }
      return *this;
    }
    ~ScanBase() { Flush(); }

    uint64_t visited() const { return visited_; }

   protected:
    using Iterator =
        typename BPlusTree<NodeRecord, Key, KeyOf>::Iterator;

    ScanBase(const NodeStore* store, Iterator it)
        : it_(std::move(it)), store_(store) {}

    /// Counts and returns the current record, then advances. The record
    /// is copied out first: advancing may unpin the page it came from,
    /// and a paged store is free to evict an unpinned page. The returned
    /// pointer stays valid until the next call.
    const NodeRecord* Step() {
      rec_ = *it_;
      ++visited_;
      if (ReadCounters* counters = ReadCounterScope::Current()) {
        ++counters->elements;
      }
      ++it_;
      return &rec_;
    }

    Iterator it_;

   private:
    void Flush() {
      if (store_ != nullptr && visited_ > 0) {
        store_->elements_.fetch_add(visited_, std::memory_order_relaxed);
      }
    }

    const NodeStore* store_;
    NodeRecord rec_;
    uint64_t visited_ = 0;
  };

  /// Incremental start-ordered scan of one tag's SD run — the streaming
  /// access path of limit-k cursors.
  class TagScan : public ScanBase<SdKey, SdKeyOf> {
   public:
    TagScan(const NodeStore* store, TagId tag);

    /// The next record with the scanned tag in start order, or nullptr at
    /// the end of the run.
    const NodeRecord* Next();

   private:
    TagId tag_;
  };

  /// Incremental scan of records with start in [lo, hi], in document
  /// order (subtree reconstruction).
  class DocScan : public ScanBase<uint32_t, StartKeyOf> {
   public:
    DocScan(const NodeStore* store, uint32_t lo, uint32_t hi);

    const NodeRecord* Next();

   private:
    uint32_t hi_;
  };

  size_t record_count() const { return count_; }
  /// Pages occupied by the four trees (excludes the paged dictionary
  /// segments sharing the pool's page space in paged mode).
  size_t page_count() const { return tree_pages_; }

  /// Placement + reattach metadata of the four trees, in snapshot order
  /// (sp, sd, value, doc). Valid in both modes; persistence writes it
  /// into the BLASIDX2 header.
  PagedStoreMeta paged_meta() const;

  /// The backing pool. The paged value dictionary reads its pages through
  /// it; persistence walks it to emit the page segments.
  const BufferPool& pool() const { return pool_; }

  /// True when this store pages from a snapshot file.
  bool paged() const { return pool_.paged(); }

  /// All records in (plabel, start) order, without touching the counters
  /// (index export / persistence).
  std::vector<NodeRecord> ExportRecords() const;

  /// Snapshot of counters accumulated since the last ResetStats().
  StorageStats stats() const;
  void ResetStats();
  /// Cold-cache experiments (the paper measures cold-cache runs). Safe
  /// against concurrent scans: pinned pages survive the drop.
  void DropCache() const { pool_.DropCache(); }

 private:
  /// Pages hinted ahead of a forward scan in one ranged readahead batch.
  /// 32 × 8 KiB = 256 KiB per batch: large enough to cover a typical tag
  /// run's leaves in one hint, small enough not to flood the cache when a
  /// limit-k cursor abandons the scan early.
  static constexpr size_t kReadaheadPages = 32;

  /// Issues one batched readahead for the leaf run ahead of a scan that
  /// just seeked `tree` to `at`. Leaves are contiguous in
  /// [first_leaf, first_leaf + leaf_pages), so the window is the ids
  /// ahead of `at`, clamped to that range. No-op for in-memory stores,
  /// ended scans, and corrupt positions outside the leaf range.
  template <typename Tree>
  void ReadaheadFrom(const Tree& tree, PageId at) const {
    if (!pool_.paged() || at == kInvalidPage) return;
    const PageId first = tree.first_leaf();
    const size_t leaves = tree.leaf_pages();
    if (first == kInvalidPage || at < first || at >= first + leaves) return;
    size_t window = leaves - (at - first);
    if (window > kReadaheadPages) window = kReadaheadPages;
    pool_.Readahead(at, window);
  }

  mutable BufferPool pool_;
  BPlusTree<NodeRecord, SpKey, SpKeyOf> sp_;
  BPlusTree<NodeRecord, SdKey, SdKeyOf> sd_;
  BPlusTree<NodeRecord, ValKey, ValKeyOf> vindex_;
  BPlusTree<NodeRecord, uint32_t, StartKeyOf> doc_;
  std::array<BPlusTreeMeta, 4> tree_metas_;  // sp, sd, value, doc
  size_t count_ = 0;
  size_t tree_pages_ = 0;
  mutable std::atomic<uint64_t> elements_{0};
};

}  // namespace blas

#endif  // BLAS_STORAGE_NODE_STORE_H_
