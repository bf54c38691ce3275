#include "storage/segment.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <utility>
#include <vector>

#include "storage/crc32c.h"
#include "storage/file_io.h"

namespace spanners {
namespace storage {

namespace {

// "SPANSEG1" — bumped whenever the layout changes incompatibly.
constexpr uint64_t kMagic = 0x3147455f4e415053ull;
constexpr uint32_t kVersion = 1;

// Fixed-size footer at the end of the file. Serialized field by field with
// explicit little-endian encoding — the struct is never written raw, so
// padding/ABI never leaks into the format.
struct Footer {
  uint64_t magic = kMagic;
  uint32_t version = kVersion;
  uint32_t page_size = 0;
  uint64_t num_docs = 0;
  uint64_t data_bytes = 0;       // unpadded document bytes
  uint64_t doc_table_offset = 0;
  uint64_t page_table_offset = 0;
  uint64_t num_pages = 0;
  uint32_t file_crc = 0;    // CRC32C over [data_end, footer_crc_field)
  uint32_t footer_crc = 0;  // CRC32C over the preceding footer fields
};
constexpr size_t kFooterSize = 8 + 4 + 4 + 8 + 8 + 8 + 8 + 8 + 4 + 4;

void PutU32(std::string* out, uint32_t v) {
  for (int i = 0; i < 4; ++i) out->push_back(char((v >> (8 * i)) & 0xff));
}
void PutU64(std::string* out, uint64_t v) {
  for (int i = 0; i < 8; ++i) out->push_back(char((v >> (8 * i)) & 0xff));
}

uint32_t GetU32(const uint8_t* p) {
  uint32_t v;
  std::memcpy(&v, p, 4);
  return v;  // little-endian hosts only (matches the rest of the codebase)
}
uint64_t GetU64(const uint8_t* p) {
  uint64_t v;
  std::memcpy(&v, p, 8);
  return v;
}

std::string EncodeFooter(const Footer& f) {
  std::string out;
  out.reserve(kFooterSize);
  PutU64(&out, f.magic);
  PutU32(&out, f.version);
  PutU32(&out, f.page_size);
  PutU64(&out, f.num_docs);
  PutU64(&out, f.data_bytes);
  PutU64(&out, f.doc_table_offset);
  PutU64(&out, f.page_table_offset);
  PutU64(&out, f.num_pages);
  PutU32(&out, f.file_crc);
  return out;  // footer_crc appended by the writer once computed
}

bool IsPow2(size_t v) { return v != 0 && (v & (v - 1)) == 0; }

}  // namespace

// ---- MappedFile ----------------------------------------------------------

Result<MappedFile> MappedFile::Open(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0)
    return Status::InvalidArgument("cannot open " + path + ": " +
                                   std::strerror(errno));
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    ::close(fd);
    return Status::InvalidArgument("cannot stat " + path);
  }
  const size_t size = static_cast<size_t>(st.st_size);
  if (size == 0) {
    ::close(fd);
    return MappedFile(nullptr, 0);
  }
  void* p = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
  ::close(fd);  // the mapping keeps its own reference
  if (p == MAP_FAILED)
    return Status::InvalidArgument("cannot mmap " + path + ": " +
                                   std::strerror(errno));
  return MappedFile(static_cast<const uint8_t*>(p), size);
}

MappedFile::MappedFile(MappedFile&& o) noexcept
    : data_(o.data_), size_(o.size_) {
  o.data_ = nullptr;
  o.size_ = 0;
}

MappedFile& MappedFile::operator=(MappedFile&& o) noexcept {
  if (this != &o) {
    this->~MappedFile();
    data_ = o.data_;
    size_ = o.size_;
    o.data_ = nullptr;
    o.size_ = 0;
  }
  return *this;
}

MappedFile::~MappedFile() {
  if (data_ != nullptr)
    ::munmap(const_cast<uint8_t*>(data_), size_);
}

// ---- SegmentStore --------------------------------------------------------

Status SegmentStore::Write(const engine::Corpus& corpus,
                           const std::string& path,
                           const SegmentWriteOptions& options) {
  if (!IsPow2(options.page_size) || options.page_size < 512)
    return Status::InvalidArgument(
        "segment page_size must be a power of two >= 512");
  const size_t page = options.page_size;

  // Data region + doc-offset table.
  uint64_t data_bytes = 0;
  for (const Document& d : corpus) data_bytes += d.text().size();
  const uint64_t padded = (data_bytes + page - 1) / page * page;
  const uint64_t num_pages = padded / page;

  std::string file;
  file.reserve(padded + (corpus.size() + 1) * 8 + num_pages * 4 +
               kFooterSize);
  std::string doc_table;
  doc_table.reserve((corpus.size() + 1) * 8);
  PutU64(&doc_table, 0);
  for (const Document& d : corpus) {
    file += d.text();
    PutU64(&doc_table, file.size());
  }
  file.resize(padded, '\0');

  // Per-page CRCs, computed in parallel on the engine pool when given:
  // one chunk of pages per pool thread.
  std::vector<uint32_t> page_crcs(num_pages, 0);
  auto crc_range = [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      const size_t off = i * page;
      page_crcs[i] = Crc32c(file.data() + off, page);
    }
  };
  if (options.pool != nullptr && num_pages > 1) {
    const size_t threads = options.pool->num_threads();
    const size_t chunk = (num_pages + threads - 1) / threads;
    options.pool->Run((num_pages + chunk - 1) / chunk, [&](size_t c, size_t) {
      crc_range(c * chunk, std::min<size_t>(c * chunk + chunk, num_pages));
    });
  } else {
    crc_range(0, num_pages);
  }

  Footer footer;
  footer.page_size = static_cast<uint32_t>(page);
  footer.num_docs = corpus.size();
  footer.data_bytes = data_bytes;
  footer.doc_table_offset = file.size();
  file += doc_table;
  footer.page_table_offset = file.size();
  for (uint32_t crc : page_crcs) PutU32(&file, crc);
  footer.num_pages = num_pages;

  // file_crc rolls up everything after the data region (the tables) plus
  // the per-page CRCs implicitly — flipping a data byte breaks its page
  // CRC, flipping a table or footer byte breaks file_crc/footer_crc.
  footer.file_crc = Crc32c(file.data() + padded, file.size() - padded);
  std::string encoded = EncodeFooter(footer);
  footer.footer_crc = Crc32c(encoded.data(), encoded.size());
  PutU32(&encoded, footer.footer_crc);
  file += encoded;

  return WriteFileDurable(path, file);
}

Result<SegmentStore> SegmentStore::Open(const std::string& path) {
  SPANNERS_ASSIGN_OR_RETURN(MappedFile mapped, MappedFile::Open(path));
  const uint8_t* base = mapped.data();
  const size_t size = mapped.size();
  if (size < kFooterSize)
    return Status::Corruption("segment " + path + ": file shorter than the " +
                              std::to_string(kFooterSize) + "-byte footer");

  // Footer: decode, then verify its own CRC before trusting any field.
  const uint8_t* f = base + size - kFooterSize;
  Footer footer;
  footer.magic = GetU64(f);
  footer.version = GetU32(f + 8);
  footer.page_size = GetU32(f + 12);
  footer.num_docs = GetU64(f + 16);
  footer.data_bytes = GetU64(f + 24);
  footer.doc_table_offset = GetU64(f + 32);
  footer.page_table_offset = GetU64(f + 40);
  footer.num_pages = GetU64(f + 48);
  footer.file_crc = GetU32(f + 56);
  footer.footer_crc = GetU32(f + 60);
  if (footer.magic != kMagic)
    return Status::Corruption("segment " + path + ": bad magic");
  if (footer.footer_crc != Crc32c(f, kFooterSize - 4))
    return Status::Corruption("segment " + path + ": footer checksum mismatch");
  if (footer.version != kVersion)
    return Status::Corruption("segment " + path + ": unsupported version " +
                              std::to_string(footer.version));

  // Structural bounds. Every derived size must match the actual file size
  // exactly — truncation or padding cannot hide from this.
  if (!IsPow2(footer.page_size) || footer.page_size < 512)
    return Status::Corruption("segment " + path + ": bad page size");
  const uint64_t page = footer.page_size;
  const uint64_t padded = (footer.data_bytes + page - 1) / page * page;
  if (footer.num_pages != padded / page ||
      footer.doc_table_offset != padded ||
      footer.page_table_offset !=
          padded + (footer.num_docs + 1) * 8 ||
      size != footer.page_table_offset + footer.num_pages * 4 + kFooterSize)
    return Status::Corruption("segment " + path +
                              ": layout does not match file size");

  // Table + footer rollup checksum.
  if (footer.file_crc !=
      Crc32c(base + padded, size - padded - kFooterSize))
    return Status::Corruption("segment " + path + ": table checksum mismatch");

  // Doc offsets: 0 = o_0 ≤ o_1 ≤ … ≤ o_n = data_bytes.
  const uint8_t* doc_table = base + footer.doc_table_offset;
  uint64_t prev = GetU64(doc_table);
  if (prev != 0)
    return Status::Corruption("segment " + path + ": doc table must start at 0");
  for (uint64_t i = 1; i <= footer.num_docs; ++i) {
    const uint64_t off = GetU64(doc_table + i * 8);
    if (off < prev || off > footer.data_bytes)
      return Status::Corruption("segment " + path +
                                ": doc offsets not monotonic");
    prev = off;
  }
  if (prev != footer.data_bytes)
    return Status::Corruption("segment " + path +
                              ": doc table does not cover the data region");

  // Every data page against its stored CRC.
  const uint8_t* page_table = base + footer.page_table_offset;
  for (uint64_t i = 0; i < footer.num_pages; ++i) {
    if (Crc32c(base + i * page, page) != GetU32(page_table + i * 4))
      return Status::Corruption("segment " + path + ": page " +
                                std::to_string(i) + " checksum mismatch");
  }

  SegmentStore store;
  store.file_ = std::make_shared<const MappedFile>(std::move(mapped));
  store.num_docs_ = static_cast<size_t>(footer.num_docs);
  store.data_bytes_ = footer.data_bytes;
  store.page_size_ = footer.page_size;
  store.num_pages_ = static_cast<size_t>(footer.num_pages);
  store.doc_table_offset_ = static_cast<size_t>(footer.doc_table_offset);
  return store;
}

uint64_t SegmentStore::DocOffset(size_t i) const {
  return GetU64(file_->data() + doc_table_offset_ + i * 8);
}

engine::Corpus SegmentStore::ReadAll() const {
  std::vector<Document> docs;
  docs.reserve(num_docs_);
  for (size_t i = 0; i < num_docs_; ++i) docs.push_back(MaterializeDoc(i));
  return engine::Corpus(std::move(docs));
}

std::string SegmentStore::ToString() const {
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "segment: %zu docs, %.1f KiB data, %zu pages x %zu",
                num_docs_, double(data_bytes_) / 1024.0, num_pages_,
                page_size_);
  return buf;
}

std::string IndexPathFor(const std::string& segment_path) {
  return segment_path + ".idx";
}

}  // namespace storage
}  // namespace spanners
