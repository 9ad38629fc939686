// Fuzz target: BLASIDX2 snapshot preflight (header + segment directory),
// then the paged open itself under the mmap backend, then every
// dictionary value through a paged system.
//
// OpenPagedSnapshot validates the fixed header, tree metadata, and segment
// directory before anything sized by untrusted bytes is allocated — this
// target hammers exactly that boundary. When the directory does validate,
// the target goes further. It opens the pool through the mmap backend:
// PagedFile::Open's size preflight must reject a file too short for its
// claimed pool pages (a truncated file behind a valid header) BEFORE any
// mapping is established — failing with a Status, never a SIGBUS on an
// unbacked mapped page. Then it opens the file as a BlasSystem and reads
// every value id, so value pages and overflow runs — payloads that are
// only validated at decode — are fuzzed too. The contract: any byte
// string either opens or returns a non-OK Status, and a value that fails
// validation reads as empty; never a crash or unbounded allocation.

#include <cstddef>
#include <cstdint>

#include "blas/blas.h"
#include "fuzz/fuzz_util.h"
#include "storage/page.h"
#include "storage/persist.h"

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  const std::string& path = blas_fuzz::WriteInput(data, size, "blasidx2");
  blas::Result<blas::PagedIndex> opened = blas::OpenPagedSnapshot(path);
  if (!opened.ok()) return 0;

  // Valid directory: open the pool mmap'ed and touch the first page, so a
  // header that overstates pool_pages against the file's real size must
  // die in the preflight, not fault through the mapping.
  blas::Result<blas::PagedFile> file = opened->OpenPool();
  if (!file.ok()) return 0;
  blas::StorageOptions storage;
  storage.backend = blas::StorageBackend::kMmap;
  storage.frames_per_shard = 4;
  storage.shards = 1;
  {
    blas::BufferPool pool(std::move(file).value(), storage);
    if (pool.page_count() > 0) {
      blas::PageRef ref = pool.Fetch(0);
      (void)static_cast<bool>(ref);  // empty ref == end-of-data, also fine
    }
  }

  storage.backend = blas::StorageBackend::kPread;
  blas::Result<blas::BlasSystem> sys = blas::BlasSystem::OpenPaged(path,
                                                                   storage);
  if (!sys.ok()) return 0;
  const blas::StringDict& dict = sys->dict();
  size_t bytes = 0;
  for (uint32_t id = 0; id < dict.size(); ++id) bytes += dict.Get(id).size();
  // Decoded values are copies of page bytes: never more than the file.
  if (bytes > size) __builtin_trap();
  return 0;
}
