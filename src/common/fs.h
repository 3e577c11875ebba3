// Crash-safe filesystem helpers.
//
// AtomicWriteFile is the single write path for every durable artifact the
// project emits (checkpoints, run reports, Chrome traces): content goes
// to a temp file in the destination directory, is fsync'd, and is renamed
// over the target, so readers observe either the old complete file or the
// new complete file — never a truncated mix.

#pragma once

#include <string>

#include "common/status.h"

namespace fastft {
namespace common {

/// Atomically replaces `path` with `content`. Writes to `<path>.tmp.<pid>`
/// in the same directory, fsyncs the data, renames over `path`, then fsyncs
/// the directory so the rename itself survives a crash. Returns IOError
/// with errno detail on any failure (the temp file is removed best-effort).
[[nodiscard]] Status AtomicWriteFile(const std::string& path,
                                     const std::string& content);

/// Reads the entire file into `out`. NotFound when the file does not
/// exist, IOError on other failures.
[[nodiscard]] Status ReadFileToString(const std::string& path,
                                      std::string* out);

/// Creates `path` (and missing parents) as a directory. OK if it already
/// exists as a directory.
[[nodiscard]] Status EnsureDir(const std::string& path);

}  // namespace common
}  // namespace fastft
