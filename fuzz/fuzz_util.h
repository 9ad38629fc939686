#ifndef BLAS_FUZZ_FUZZ_UTIL_H_
#define BLAS_FUZZ_FUZZ_UTIL_H_

#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <string>

namespace blas_fuzz {

/// Per-process temporary file path for `tag`. The same path is reused
/// across iterations; libFuzzer is single-threaded per process.
inline std::string TempFilePath(const char* tag) {
  return std::string("/tmp/blas_fuzz_") + tag + "_" +
         std::to_string(::getpid()) + ".bin";
}

/// Writes the fuzzer input to a per-process temporary file and returns its
/// path. The snapshot and manifest targets parse *files*
/// (ReplayManifest and OpenPagedSnapshot take paths — they are
/// crash-recovery codepaths, the file is the interface), so each
/// iteration round-trips through one.
inline const std::string& WriteInput(const uint8_t* data, size_t size,
                                     const char* tag) {
  static thread_local std::string path;
  if (path.empty()) path = TempFilePath(tag);
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f != nullptr) {
    if (size != 0) (void)std::fwrite(data, 1, size, f);
    (void)std::fclose(f);
  }
  return path;
}

}  // namespace blas_fuzz

#endif  // BLAS_FUZZ_FUZZ_UTIL_H_
