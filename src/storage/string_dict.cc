#include "storage/string_dict.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <utility>

namespace blas {

namespace {

const std::string kEmptyValue;

/// Validates and decodes one packed value page, appending its strings to
/// `out`: the count is capped by the page's capacity, first_id must match
/// `expected_first`, the id range must fit `value_count`, and the offsets
/// must ascend within the page. Returns false (appending nothing) on any
/// violation.
bool DecodeValuePage(const Page& page, uint32_t expected_first,
                     uint64_t value_count, std::vector<std::string>* out) {
  const auto* header = page.As<ValuePageHeader>();
  if (header->first_id != expected_first) return false;
  const uint64_t max_count = (kPageSize - sizeof(ValuePageHeader)) / 4 - 1;
  if (header->count == 0 || header->count > max_count) return false;
  if (uint64_t{header->first_id} + header->count > value_count) return false;
  const auto* offsets = reinterpret_cast<const uint32_t*>(
      page.bytes.data() + sizeof(ValuePageHeader));
  uint32_t prev = static_cast<uint32_t>(sizeof(ValuePageHeader) +
                                        (header->count + 1) * 4);
  for (uint32_t i = 0; i <= header->count; ++i) {
    if (offsets[i] < prev || offsets[i] > kPageSize) return false;
    prev = offsets[i];
  }
  const char* base = reinterpret_cast<const char*>(page.bytes.data());
  for (uint32_t i = 0; i < header->count; ++i) {
    out->emplace_back(base + offsets[i], offsets[i + 1] - offsets[i]);
  }
  return true;
}

}  // namespace

uint32_t StringDict::Intern(std::string_view value) {
  assert(!paged() && "Intern on a paged (immutable) dictionary");
  auto it = ids_.find(std::string(value));
  if (it != ids_.end()) return it->second;
  uint32_t id = static_cast<uint32_t>(values_.size());
  values_.emplace_back(value);
  ids_.emplace(values_.back(), id);
  return id;
}

void StringDict::AttachPaged(const BufferPool* pool, PagedDictLayout layout) {
  pool_ = pool;
  layout_ = std::move(layout);
}

const std::string& StringDict::Get(uint32_t id) const {
  if (!paged()) return values_[id];
  return PagedGet(id);
}

const std::string& StringDict::PagedGet(uint32_t id) const {
  if (id >= layout_.count) {
    assert(false && "dictionary id out of range");
    return kEmptyValue;
  }
  // Locate the page: page_first_ids is ascending, one entry per page.
  auto it = std::upper_bound(layout_.page_first_ids.begin(),
                             layout_.page_first_ids.end(), id);
  assert(it != layout_.page_first_ids.begin());
  uint32_t page_index =
      static_cast<uint32_t>(it - layout_.page_first_ids.begin() - 1);

  MutexLock lock(decode_mu_);
  auto cached = decoded_.find(page_index);
  if (cached == decoded_.end()) {
    std::vector<std::string> page_values;
    if (!DecodePage(page_index, &page_values)) return kEmptyValue;
    cached = decoded_.emplace(page_index, std::move(page_values)).first;
  }
  const std::vector<std::string>& page_values = cached->second;
  uint32_t slot = id - layout_.page_first_ids[page_index];
  if (slot >= page_values.size()) return kEmptyValue;
  return page_values[slot];
}

bool StringDict::DecodePage(uint32_t page_index,
                            std::vector<std::string>* out) const {
  const uint32_t first_id = layout_.page_first_ids[page_index];
  OverflowRef run;
  {
    PageRef ref = pool_->Fetch(layout_.first_value_page + page_index);
    if (!ref) return false;
    const auto* header = ref->As<ValuePageHeader>();
    if (header->count != 0) {
      return DecodeValuePage(*ref, first_id, layout_.count, out);
    }
    if (header->first_id != first_id) return false;
    std::memcpy(&run, ref->bytes.data() + sizeof(ValuePageHeader),
                sizeof(run));
  }  // the reference page's pin drops before the run is read
  if (run.page_count == 0 ||
      uint64_t{run.first_page} + run.page_count >
          layout_.overflow_page_count ||
      run.length > uint64_t{run.page_count} * kOverflowPayload) {
    return false;
  }
  std::string value;
  value.reserve(run.length);
  for (PageId page = layout_.first_overflow_page + run.first_page;
       value.size() < run.length; ++page) {
    PageRef ref = pool_->Fetch(page);
    if (!ref || ref->As<OverflowPageHeader>()->value_id != first_id) {
      return false;
    }
    const size_t n =
        std::min<uint64_t>(kOverflowPayload, run.length - value.size());
    value.append(reinterpret_cast<const char*>(ref->bytes.data()) +
                     sizeof(OverflowPageHeader),
                 n);
  }
  out->push_back(std::move(value));
  return true;
}

uint32_t StringDict::PermEntry(uint64_t k) const {
  PageId page = layout_.first_perm_page + static_cast<PageId>(k / kPermPerPage);
  PageRef ref = pool_->Fetch(page);
  if (!ref) {
    assert(false && "permutation page unreadable");
    return 0;
  }
  return ref->As<uint32_t>()[k % kPermPerPage];
}

std::optional<uint32_t> StringDict::Find(std::string_view value) const {
  if (!paged()) {
    auto it = ids_.find(std::string(value));
    if (it == ids_.end()) return std::nullopt;
    return it->second;
  }
  // Binary search the sorted-by-string permutation; each probe costs one
  // permutation-page read plus one value read (both through the pool, so
  // dictionary probes show up in the page counters like index descents).
  uint64_t lo = 0;
  uint64_t hi = layout_.count;
  while (lo < hi) {
    uint64_t mid = lo + (hi - lo) / 2;
    if (Get(PermEntry(mid)) < value) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  if (lo >= layout_.count) return std::nullopt;
  uint32_t id = PermEntry(lo);
  if (Get(id) != value) return std::nullopt;
  return id;
}

}  // namespace blas
