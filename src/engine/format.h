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
#include "core/variable.h"

namespace spanners {
namespace engine {

class MultiQueryExtractor;

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

/// The TSV header block of a fleet's output, every line newline-
/// terminated: a fleet of one prints as its plan alone (TsvHeader), a
/// larger fleet as FleetTsvHeader. spanex and spanexd print a fleet
/// through this and AppendFleetOutputRow, so their bytes agree for any
/// fleet size.
std::string FleetOutputHeader(const MultiQueryExtractor& fleet);

/// One row of plan `plan_index` of a fleet of `num_plans`:
/// AppendMappingRow for one plan, AppendFleetMappingRow for more.
inline void AppendFleetOutputRow(std::string* out, OutputFormat format,
                                 size_t num_plans, size_t plan_index,
                                 size_t doc_index, const Mapping& m,
                                 const VarSet& vars, const Document& doc) {
  if (num_plans == 1) {
    AppendMappingRow(out, format, doc_index, m, vars, doc);
  } else {
    AppendFleetMappingRow(out, format, plan_index, doc_index, m, vars, doc);
  }
}

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

}  // namespace engine
}  // namespace spanners

#endif  // SPANNERS_ENGINE_FORMAT_H_
