// Dataset persistence: a compact binary format (.sjd) for exact
// round-trips and a plain CSV reader/writer for interchange with other
// tools, so downstream users can run the joins on their own data.
//
// .sjd layout (little-endian): magic "SJD1" (4 bytes), uint32 dim,
// uint64 count, then count*dim IEEE-754 doubles, row-major.
#pragma once

#include <cstddef>
#include <string>

#include "common/dataset.hpp"

namespace sj::io {

/// Crash-safe file write: the content lands in a temp file in the same
/// directory, is flushed to stable storage (fsync), then renamed over
/// `path`. Readers never observe a torn or partially-written file — they
/// see either the old content or the new, which is what lets loaders
/// trust a snapshot checksum. Creates parent
/// directories; throws std::runtime_error on any failure (the temp file
/// is removed).
void atomic_write_file(const std::string& path, const void* bytes,
                       std::size_t size);
void atomic_write_file(const std::string& path, const std::string& text);

/// Write `d` in the binary .sjd format (creates parent directories).
void save_binary(const Dataset& d, const std::string& path);

/// Read an .sjd file; throws std::runtime_error on malformed input
/// (bad magic/header, truncation, header larger than the file could
/// hold, or non-finite coordinates — the error names the file and the
/// offending row).
Dataset load_binary(const std::string& path);

/// Write one point per line, coordinates comma-separated, no header.
void save_csv(const Dataset& d, const std::string& path);

/// Read comma-separated points (one per line, optional header line is
/// auto-detected and skipped); all rows must share the same width.
/// Rejects non-numeric cells, NaN/Inf coordinates, ragged rows and
/// truncated trailing rows with an error naming the file and line.
Dataset load_csv(const std::string& path);

}  // namespace sj::io
