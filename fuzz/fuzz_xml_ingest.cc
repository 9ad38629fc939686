// Fuzz target: XML in, BLASIDX2 snapshot out, and back.
//
// Any document BlasSystem::FromXml indexes must also persist and reopen:
// SavePagedIndex and OpenPaged both succeed, the reopened system reports
// the same doc_stats(), and `//*` returns the same element starts. This is
// the path live ingestion takes (LiveCollection::AddDocument), so a
// parsable document that cannot be saved — say, one whose text node is
// longer than a page — is a finding, not an input error.

#include <cstddef>
#include <cstdint>
#include <string_view>

#include "blas/blas.h"
#include "fuzz/fuzz_util.h"

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  std::string_view xml(reinterpret_cast<const char*>(data), size);
  blas::Result<blas::BlasSystem> built = blas::BlasSystem::FromXml(xml);
  if (!built.ok()) return 0;

  const std::string path = blas_fuzz::TempFilePath("xml_ingest");
  if (!built->SavePagedIndex(path).ok()) __builtin_trap();
  blas::Result<blas::BlasSystem> reopened = blas::BlasSystem::OpenPaged(path);
  if (!reopened.ok()) __builtin_trap();

  const blas::BlasSystem::DocStats a = built->doc_stats();
  const blas::BlasSystem::DocStats b = reopened->doc_stats();
  if (a.nodes != b.nodes || a.tags != b.tags || a.depth != b.depth ||
      a.distinct_paths != b.distinct_paths || a.pages != b.pages ||
      a.distinct_values != b.distinct_values) {
    __builtin_trap();
  }
  blas::Result<blas::QueryResult> want =
      built->Execute("//*", blas::QueryOptions{});
  blas::Result<blas::QueryResult> got =
      reopened->Execute("//*", blas::QueryOptions{});
  if (want.ok() != got.ok()) __builtin_trap();
  if (want.ok() && want->starts != got->starts) __builtin_trap();
  return 0;
}
