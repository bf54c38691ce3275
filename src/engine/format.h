// Row formatting for engine output: one extracted mapping → one TSV or
// JSON line. Used by tools/spanex and kept in the library so tests can pin
// the exact wire format.
#ifndef SPANNERS_ENGINE_FORMAT_H_
#define SPANNERS_ENGINE_FORMAT_H_

#include <cstddef>
#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

#include "core/document.h"
#include "core/mapping.h"
#include "core/mapping_sink.h"
#include "core/variable.h"

namespace spanners {
namespace engine {

enum class OutputFormat { kTsv, kJson };

/// Parses "tsv" / "json" (case-sensitive).
bool ParseOutputFormat(const std::string& s, OutputFormat* out);

/// Header line naming the TSV columns for `vars` (doc, then one span and
/// one content column per variable, in VarId order): e.g.
/// "doc\tx.span\tx.text\ty.span\ty.text".
std::string TsvHeader(const VarSet& vars);

/// One TSV row: document index, then per variable of `vars` either
/// "i..j" + extracted text or "⊥" + empty when the mapping leaves the
/// variable unassigned (incomplete information). Tabs/newlines/backslashes
/// in content are escaped as \t, \n, \\.
std::string ToTsvRow(size_t doc_index, const Mapping& m, const VarSet& vars,
                     const Document& doc);

/// Appends `s` as a quoted JSON string literal to *out: `"` and `\` are
/// escaped, \n \t \r as themselves, every other byte below 0x20 as
/// \u00XX; bytes from 0x20 up, non-ASCII included, pass through. The one
/// JSON string writer of the engine, the reports and the server
/// (server::AppendJsonString).
void AppendJsonString(std::string* out, std::string_view s);

/// One JSON object per line (JSONL):
/// {"doc":0,"x":{"span":[1,4],"text":"abc"},"y":null}.
std::string ToJsonRow(size_t doc_index, const Mapping& m, const VarSet& vars,
                      const Document& doc);

/// The header block of a multi-plan (fleet) TSV stream: one
/// "# q<p>: query\t<TsvHeader(vars)>\n" line per plan, in plan order.
/// Shared by tools/spanex and the spanexd batch path so served output is
/// byte-identical to the offline run by construction.
std::string FleetTsvHeader(const std::vector<const VarSet*>& vars_per_plan);

/// Appends one single-plan output row (ToTsvRow / ToJsonRow) plus the
/// trailing newline to *out.
void AppendMappingRow(std::string* out, OutputFormat format,
                      size_t doc_index, const Mapping& m, const VarSet& vars,
                      const Document& doc);

/// Appends one fleet output row: TSV rows gain the leading `query` column
/// (the plan's position), JSON rows the "query" key — exactly the wire
/// format of a multi-pattern spanex run.
void AppendFleetMappingRow(std::string* out, OutputFormat format,
                           size_t plan_index, size_t doc_index,
                           const Mapping& m, const VarSet& vars,
                           const Document& doc);

/// Error-checked writer over a C stream (stdout in the tools). Every
/// Write/Flush result is checked, so a closed downstream pipe
/// (`spanex ... | head`) surfaces as a clean failure instead of SIGPIPE
/// death or silently truncated output — callers install
/// `signal(SIGPIPE, SIG_IGN)` and test ok() after streaming. After the
/// first failure every further call is a no-op returning false and
/// error() keeps the original errno.
class CheckedWriter {
 public:
  explicit CheckedWriter(std::FILE* stream) : stream_(stream) {}

  /// False on the first (or any earlier) write error.
  bool Write(std::string_view s);
  bool Flush();

  bool ok() const { return error_ == 0; }
  /// errno of the first failed write/flush; 0 while ok.
  int error() const { return error_; }
  /// "write error: <strerror>" for the failure report; "" while ok.
  std::string ErrorMessage() const;

 private:
  std::FILE* stream_;
  int error_ = 0;
};

/// Formats mappings as they stream: each pushed mapping becomes one TSV
/// or JSONL line appended to *out, and its storage is recycled into the
/// pool. Terminates a push-based pipeline (Spanner::ExtractTo, the
/// query operators) without materializing a mapping vector in between;
/// rows arrive in the producer's (unsorted) order.
class FormattingSink final : public MappingSink {
 public:
  FormattingSink(OutputFormat format, size_t doc_index, const VarSet& vars,
                 const Document& doc, std::string* out,
                 MappingPool* pool = nullptr)
      : format_(format),
        doc_index_(doc_index),
        vars_(vars),
        doc_(doc),
        out_(out),
        pool_(pool) {}

  bool Push(Mapping m) override {
    *out_ += format_ == OutputFormat::kTsv
                 ? ToTsvRow(doc_index_, m, vars_, doc_)
                 : ToJsonRow(doc_index_, m, vars_, doc_);
    *out_ += '\n';
    ++rows_;
    if (pool_ != nullptr) pool_->Recycle(std::move(m));
    return true;
  }
  MappingPool* pool() override { return pool_; }
  size_t rows() const { return rows_; }

 private:
  OutputFormat format_;
  size_t doc_index_;
  const VarSet& vars_;
  const Document& doc_;
  std::string* out_;
  MappingPool* pool_;
  size_t rows_ = 0;
};

}  // namespace engine
}  // namespace spanners

#endif  // SPANNERS_ENGINE_FORMAT_H_
