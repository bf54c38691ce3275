// Persistent corpus storage: an immutable, memory-mapped segment format.
//
// A segment holds one whole Corpus as a single file laid out for mmap
// consumption — extraction over a billion-document corpus should touch
// only the pages its candidate documents live on, not re-read the corpus
// per request. The layout (all integers little-endian):
//
//   ┌────────────────────────────────────────────┐ offset 0
//   │ data region: document bytes, back to back, │
//   │ zero-padded to a page_size boundary        │
//   ├────────────────────────────────────────────┤ doc_table_offset
//   │ doc-offset table: num_docs+1 × u64 byte    │
//   │ offsets into the data region               │
//   ├────────────────────────────────────────────┤ page_table_offset
//   │ page checksum table: num_pages × u32       │
//   │ CRC32C, one per data page                  │
//   ├────────────────────────────────────────────┤ file_size - kFooterSize
//   │ footer: magic, version, page_size,         │
//   │ num_docs, data_bytes, table offsets,       │
//   │ file_crc (whole-file rollup), footer_crc   │
//   └────────────────────────────────────────────┘
//
// Crash-safety / corruption posture: every byte of the file is covered by
// some checksum — data pages individually (page CRC table), the two tables
// plus the footer's own fields by file_crc/footer_crc — and Open verifies
// ALL of them plus the structural invariants (monotonic doc offsets,
// in-bounds tables) before returning, so a truncated or bit-flipped
// segment is rejected with Status::Corruption and never reaches the
// engine. Readers after a successful Open never re-validate.
//
// Writing reuses the engine's ThreadPool to checksum pages
// in parallel (the write path is sequential-IO-bound; checksums are the
// CPU part). Documents materialized out of the store copy their bytes, so
// extraction results never dangle when the store closes.
#ifndef SPANNERS_STORAGE_SEGMENT_H_
#define SPANNERS_STORAGE_SEGMENT_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

#include "common/status.h"
#include "core/document.h"
#include "engine/corpus.h"
#include "engine/thread_pool.h"

namespace spanners {
namespace storage {

/// RAII read-only memory mapping of a whole file. Movable, not copyable;
/// unmaps on destruction. An empty file maps to (nullptr, 0).
class MappedFile {
 public:
  static Result<MappedFile> Open(const std::string& path);

  MappedFile() = default;
  MappedFile(MappedFile&& o) noexcept;
  MappedFile& operator=(MappedFile&& o) noexcept;
  ~MappedFile();

  const uint8_t* data() const { return data_; }
  size_t size() const { return size_; }
  std::string_view view() const {
    return std::string_view(reinterpret_cast<const char*>(data_), size_);
  }

 private:
  MappedFile(const uint8_t* data, size_t size) : data_(data), size_(size) {}

  const uint8_t* data_ = nullptr;
  size_t size_ = 0;
};

struct SegmentWriteOptions {
  /// Checksum / padding granularity. Must be a power of two ≥ 512.
  size_t page_size = 4096;
  /// Pool for parallel page checksumming; nullptr = checksum inline.
  engine::ThreadPool* pool = nullptr;
};

/// An open, validated, memory-mapped segment.
class SegmentStore {
 public:
  /// Serializes `corpus` into a new segment at `path` (atomically: written
  /// to `path.tmp` then renamed, so a crash never leaves a half-written
  /// file under the final name).
  static Status Write(const engine::Corpus& corpus, const std::string& path,
                      const SegmentWriteOptions& options = {});

  /// Maps and fully validates the segment at `path`: footer magic /
  /// version / CRC, structural bounds, and every page checksum. Returns
  /// Status::Corruption on any mismatch.
  static Result<SegmentStore> Open(const std::string& path);

  size_t num_docs() const { return num_docs_; }
  uint64_t data_bytes() const { return data_bytes_; }
  size_t page_size() const { return page_size_; }
  size_t num_pages() const { return num_pages_; }
  uint64_t file_bytes() const { return file_->size(); }

  /// Document i's bytes, viewing the mapping directly (no copy). Valid
  /// only while the store is open.
  std::string_view doc_view(size_t i) const {
    const uint64_t begin = DocOffset(i), end = DocOffset(i + 1);
    return file_->view().substr(begin, end - begin);
  }
  size_t doc_bytes(size_t i) const {
    return DocOffset(i + 1) - DocOffset(i);
  }

  /// Document i as an owning Document (bytes copied out of the mapping —
  /// results built from it survive the store).
  Document MaterializeDoc(size_t i) const {
    return Document(std::string(doc_view(i)));
  }

  /// The whole corpus, materialized (the full-scan path).
  engine::Corpus ReadAll() const;

  /// e.g. "segment: 1000 docs, 512.0 KiB data, 129 pages × 4096".
  std::string ToString() const;

 private:
  SegmentStore() = default;

  uint64_t DocOffset(size_t i) const;

  // shared_ptr: the store is copied into per-call state freely; the
  // mapping lives until the last copy dies.
  std::shared_ptr<const MappedFile> file_;
  size_t num_docs_ = 0;
  uint64_t data_bytes_ = 0;
  size_t page_size_ = 0;
  size_t num_pages_ = 0;
  size_t doc_table_offset_ = 0;
};

/// Default name of the posting index stored alongside a segment:
/// "<segment path>.idx".
std::string IndexPathFor(const std::string& segment_path);

}  // namespace storage
}  // namespace spanners

#endif  // SPANNERS_STORAGE_SEGMENT_H_
