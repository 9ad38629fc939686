#ifndef BLAS_STORAGE_STRING_DICT_H_
#define BLAS_STORAGE_STRING_DICT_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/thread_annotations.h"
#include "storage/buffer_pool.h"
#include "storage/page.h"

namespace blas {

/// On-page layout of the paged value dictionary (see persist.h for the
/// surrounding BLASIDX2 segment directory):
///
///   * value pages — `{u32 count; u32 first_id; u32 offsets[count+1];
///     char bytes[]}`: string i of the page spans
///     [offsets[i], offsets[i+1]) from the page start. Values are packed
///     in id order, one value never split across pages.
///   * overflow references — a value longer than one value page's payload
///     gets a value page of its own, `{u32 count = 0; u32 first_id;
///     OverflowRef run}`, and its bytes fill a contiguous run of overflow
///     pages `{u32 value_id; char bytes[kOverflowPayload]}` (the last one
///     zero-padded). Each overflow page names the value it belongs to, so
///     two references can never share pages: the decoded values of a
///     snapshot, however corrupt, never total more than its bytes.
///   * permutation pages — a flat u32 array (kPermPerPage per page) of
///     value ids ordered by byte-wise string comparison; `Find` binary
///     searches it with one page read per probe.
struct PagedDictLayout {
  uint64_t count = 0;
  PageId first_value_page = 0;
  uint32_t value_page_count = 0;
  PageId first_overflow_page = 0;
  uint32_t overflow_page_count = 0;
  PageId first_perm_page = 0;
  uint32_t perm_page_count = 0;
  /// First value id of each value page, in page order (loaded eagerly
  /// from the snapshot's value-page-index segment; 4 bytes per page).
  std::vector<uint32_t> page_first_ids;
};

/// Header prefix of one paged value page.
struct ValuePageHeader {
  uint32_t count;  // 0 marks an overflow reference
  uint32_t first_id;
  // uint32_t offsets[count + 1] follow, then the packed bytes — or, when
  // count == 0, one OverflowRef.
};

/// Where an oversized value's bytes live: overflow pages
/// [first_page, first_page + page_count), relative to the overflow
/// segment, whose payloads concatenate to at least `length` bytes; the
/// first `length` of them are the value.
struct OverflowRef {
  uint32_t first_page;
  uint32_t page_count;
  uint64_t length;
};

/// Header of one overflow page: the id of the value whose run it is in.
struct OverflowPageHeader {
  uint32_t value_id;
};

inline constexpr size_t kOverflowPayload =
    kPageSize - sizeof(OverflowPageHeader);

/// Longest value a packed value page holds: header (8) + two offsets (8)
/// + the bytes. Longer values go to the overflow segment.
inline constexpr size_t kMaxPackedValue =
    kPageSize - sizeof(ValuePageHeader) - 2 * sizeof(uint32_t);

inline constexpr size_t kPermPerPage = kPageSize / sizeof(uint32_t);

/// \brief Dictionary encoding for PCDATA values.
///
/// The `data` column of the node relation stores dictionary ids; equality
/// value predicates become integer comparisons after one lookup.
///
/// Two modes:
///   * **In-memory** (systems built from XML or events): all values
///     resident, lock-free lookups.
///   * **Paged** (`AttachPaged`, BLASIDX2 snapshots): values live in
///     page-granular segments of the snapshot file and are read through
///     the store's BufferPool on demand (counted as page fetches /
///     io_reads like any index page). An oversized value is copied out of
///     its overflow run one page at a time, so a lookup never pins more
///     than one frame. Page payloads are untrusted: a value page or
///     overflow reference that fails validation decodes as the empty
///     value, never an out-of-bounds read. Decoded pages are memoized so
///     `Get` can keep returning stable references. Deliberate tradeoff:
///     because callers hold those references indefinitely, the memo is
///     never evicted and is NOT charged to the frame budget — the budget
///     bounds raw index/dictionary pages; the decoded working set grows
///     with the distinct values a query load actually projects or
///     probes (worst case the whole dictionary). Lookups serialize on
///     one latch per dictionary; value-projection-heavy concurrent
///     workloads pay that contention, index scans never do.
///     The pool's storage backend is transparent here: each raw page is
///     held only inside one decode call (a short-lived PageRef, valid
///     across DropCache under every backend — pread pins the frame, mmap
///     pins the mapping epoch), and everything returned to callers is
///     copied into the memo.
///
/// Concurrency: both modes are safe for concurrent readers once
/// construction/attachment finishes (`Intern` is build-time only).
class StringDict {
 public:
  StringDict() = default;
  /// Moves are build-time only (handing the labeler's dict to the
  /// system); the decode memo's latch is not movable and starts fresh.
  StringDict(StringDict&& other) noexcept
      : values_(std::move(other.values_)),
        ids_(std::move(other.ids_)),
        pool_(other.pool_),
        layout_(std::move(other.layout_)),
        decoded_(std::move(other.decoded_)) {
    other.pool_ = nullptr;
  }
  StringDict& operator=(StringDict&& other) noexcept {
    if (this != &other) {
      values_ = std::move(other.values_);
      ids_ = std::move(other.ids_);
      pool_ = other.pool_;
      layout_ = std::move(other.layout_);
      decoded_ = std::move(other.decoded_);
      other.pool_ = nullptr;
    }
    return *this;
  }

  /// Returns the id of `value`, inserting it if new. Build-time,
  /// in-memory mode only.
  uint32_t Intern(std::string_view value);

  /// Returns the id of `value` if present (query-time lookup; an absent
  /// value means the predicate selects nothing).
  std::optional<uint32_t> Find(std::string_view value) const;

  /// The value with id `id`. The reference stays valid for the dict's
  /// lifetime in both modes.
  const std::string& Get(uint32_t id) const;

  size_t size() const { return paged() ? layout_.count : values_.size(); }

  /// Switches this dict to paged mode: values resolve through `pool`
  /// (which must outlive the dict) according to `layout`.
  void AttachPaged(const BufferPool* pool, PagedDictLayout layout);

  bool paged() const { return pool_ != nullptr; }

 private:
  const std::string& PagedGet(uint32_t id) const;
  /// Decodes value page `page_index` (or the overflow run it references)
  /// into `out`; false when the page fails validation.
  bool DecodePage(uint32_t page_index, std::vector<std::string>* out) const
      BLAS_REQUIRES(decode_mu_);
  /// Entry `k` of the sorted-by-string id permutation.
  uint32_t PermEntry(uint64_t k) const;

  // In-memory mode: mutated only during the single-threaded build phase
  // (Intern); read-only once the dict is shared with readers.
  // blas-analyze: allow(guarded-coverage) -- build-phase only
  std::vector<std::string> values_;
  // blas-analyze: allow(guarded-coverage) -- build-phase only
  std::unordered_map<std::string, uint32_t> ids_;

  // Paged mode: set once by AttachPaged before any reader sees the dict.
  // blas-analyze: allow(guarded-coverage) -- set once by AttachPaged
  const BufferPool* pool_ = nullptr;
  // blas-analyze: allow(guarded-coverage) -- set once by AttachPaged
  PagedDictLayout layout_;
  /// Decoded value pages, keyed by page index within the value segment.
  /// References returned by Get point into these vectors; entries are
  /// never removed, so they stay valid. (A rehash moves the vectors, not
  /// their heap buffers.)
  mutable Mutex decode_mu_;
  mutable std::unordered_map<uint32_t, std::vector<std::string>> decoded_
      BLAS_GUARDED_BY(decode_mu_);
};

}  // namespace blas

#endif  // BLAS_STORAGE_STRING_DICT_H_
