// Persistent, content-addressed on-disk store of per-library static
// analysis artifacts — the cross-run (and cross-process) half of the
// SummaryCache's amortisation.
//
// Layout: one file per library under the store directory,
//
//   <dir>/sum_<016x key>.nss
//
// where `key` is the existing content hash (library_key: image bytes + JNI
// entry offsets). Each file is a 32-byte header followed by the serialized
// LibrarySummary:
//
//   magic   u32  'NSS1'
//   version u32  kFormatVersion — bumped whenever the payload encoding or
//                the LibrarySummary semantics change; mismatches are
//                rejected exactly like corruption (version skew never
//                deserializes stale facts)
//   key     u64  must equal the key named by the file (and the payload's)
//   size    u64  payload byte count (must equal file size minus header)
//   hash    u64  FNV-1a over the payload bytes
//
// Reads mmap the file and verify magic/version/key/size/hash straight off
// the mapping — no intermediate copy of the file is ever made — then decode
// the payload in place. Any mismatch (truncation, bit flip, version skew,
// wrong key) makes load() return nullptr and count a corruption; the caller
// lifts fresh and save() rewrites the entry.
//
// Writes are atomic: the entry is encoded into a unique tempfile in the
// same directory (".nss.tmp.<pid>.<seq>"), fsync'd, then rename(2)'d over
// the final name. Concurrent readers therefore observe either the complete
// old entry or the complete new one, never a partial write — which is what
// lets many farm worker *processes* share one store directory with no
// locking at all.
#pragma once

#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "static/library_summary.h"

namespace ndroid::static_analysis {

class SummaryStore {
 public:
  static constexpr u32 kMagic = 0x3153534Eu;  // "NSS1" little-endian
  // v2: TBB/TBH ops, VSA jump tables, precision counters, degrade sites,
  // image-relative windows and relocatable call targets.
  // v3: library_key hashes the image a word at a time (keys changed).
  // v4: library_key hashes the words over four lanes (keys changed).
  static constexpr u32 kFormatVersion = 4;
  static constexpr std::size_t kHeaderSize = 32;

  struct Stats {
    u64 loads = 0;    // load() calls
    u64 hits = 0;     // load() returned an artifact
    u64 corrupt = 0;  // load() rejected an entry (hash/version/size/decode)
    u64 writes = 0;   // save() completed a rename
    u64 write_errors = 0;
  };

  /// Opens (creating if needed) the store rooted at `dir`. Throws
  /// std::runtime_error if the directory cannot be created.
  explicit SummaryStore(std::string dir);

  SummaryStore(const SummaryStore&) = delete;
  SummaryStore& operator=(const SummaryStore&) = delete;

  /// Loads the entry for `key`, or nullptr when absent or rejected
  /// (truncated, bit-flipped, version-skewed, mis-keyed). Never throws on
  /// bad input — corruption is an expected condition the caller re-lifts
  /// around.
  [[nodiscard]] std::shared_ptr<const LibrarySummary> load(u64 key);

  /// Persists `lib` under its own key via tempfile + atomic rename.
  /// Returns false (and counts a write error) on any I/O failure; the farm
  /// treats the store as best-effort and keeps running off in-memory state.
  bool save(const LibrarySummary& lib);

  /// Keys currently present on disk (directory scan; used to pre-warm an
  /// in-memory cache before forking workers).
  [[nodiscard]] std::vector<u64> keys() const;

  [[nodiscard]] std::string path_for(u64 key) const;
  [[nodiscard]] const std::string& dir() const { return dir_; }
  [[nodiscard]] Stats stats() const;

  /// Payload codec, exposed for the corruption tests (and anyone who wants
  /// to ship a LibrarySummary over a pipe). encode() is deterministic:
  /// equal summaries produce equal bytes. decode() throws serde::DecodeError
  /// on malformed input.
  [[nodiscard]] static std::vector<u8> encode(const LibrarySummary& lib);
  [[nodiscard]] static LibrarySummary decode(std::span<const u8> payload);

 private:
  std::string dir_;
  mutable std::mutex mu_;
  Stats stats_;
  u64 tmp_seq_ = 0;
};

}  // namespace ndroid::static_analysis
