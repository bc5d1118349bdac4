#pragma once
// BENCH_*.json snapshots, shared by the harnesses that record one.
//
// A plain run writes its snapshot beside the harness binary, never over the
// committed copy in the repo root, and prints where it went. To re-record a
// baseline, copy that file over the committed one. `--quick` gates read the
// committed copy from the working directory (run them from the repo root).

#include <cstdio>
#include <filesystem>
#include <string>
#include <system_error>

#include "mpros/codec/codec.hpp"

namespace mpros::bench {

/// Open snapshot `name` for writing in the directory of the running binary;
/// `path` receives where it goes. Returns null, after a message on stderr,
/// when it cannot be opened.
inline std::FILE* open_snapshot(const char* name, std::string& path) {
  std::error_code ec;
  const std::filesystem::path exe =
      std::filesystem::read_symlink("/proc/self/exe", ec);
  if (ec) {
    std::fprintf(stderr, "cannot locate the harness binary to write %s\n",
                 name);
    return nullptr;
  }
  path = (exe.parent_path() / name).string();
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) std::fprintf(stderr, "cannot write %s\n", path.c_str());
  return f;
}

/// Value of `"key": <number>` in the committed snapshot `name` in the working
/// directory, or 0 when the file or the key is missing.
inline double committed_baseline(const char* name, const char* key) {
  const auto bytes = codec::read_file(name);
  if (!bytes.has_value()) return 0.0;
  const std::string text(bytes->begin(), bytes->end());
  const std::string quoted = std::string("\"") + key + "\":";
  const std::size_t at = text.find(quoted);
  double value = 0.0;
  if (at != std::string::npos) {
    std::sscanf(text.c_str() + at + quoted.size(), "%lf", &value);
  }
  return value;
}

}  // namespace mpros::bench
