#include "engine/format.h"

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <string_view>

#include "engine/multi_query.h"

namespace spanners {
namespace engine {

namespace {

void AppendTsvEscaped(std::string_view text, std::string* out) {
  for (char c : text) {
    switch (c) {
      case '\t':
        *out += "\\t";
        break;
      case '\n':
        *out += "\\n";
        break;
      case '\\':
        *out += "\\\\";
        break;
      default:
        *out += c;
    }
  }
}

}  // namespace

void AppendJsonString(std::string* out, std::string_view s) {
  *out += '"';
  for (char c : s) {
    switch (c) {
      case '"':
        *out += "\\\"";
        break;
      case '\\':
        *out += "\\\\";
        break;
      case '\n':
        *out += "\\n";
        break;
      case '\t':
        *out += "\\t";
        break;
      case '\r':
        *out += "\\r";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          *out += buf;
        } else {
          *out += c;
        }
    }
  }
  *out += '"';
}

bool ParseOutputFormat(const std::string& s, OutputFormat* out) {
  if (s == "tsv") {
    *out = OutputFormat::kTsv;
    return true;
  }
  if (s == "json") {
    *out = OutputFormat::kJson;
    return true;
  }
  return false;
}

std::string TsvHeader(const VarSet& vars) {
  std::string out = "doc";
  for (VarId x : vars) {
    const std::string& name = Variable::Name(x);
    out += "\t" + name + ".span\t" + name + ".text";
  }
  return out;
}

std::string ToTsvRow(size_t doc_index, const Mapping& m, const VarSet& vars,
                     const Document& doc) {
  std::string out = std::to_string(doc_index);
  for (VarId x : vars) {
    out += '\t';
    std::optional<Span> s = m.Get(x);
    if (!s.has_value()) {
      out += "⊥\t";  // ⊥: the variable is unassigned in this mapping
      continue;
    }
    out += std::to_string(s->begin) + ".." + std::to_string(s->end);
    out += '\t';
    AppendTsvEscaped(doc.content(*s), &out);
  }
  return out;
}

std::string ToJsonRow(size_t doc_index, const Mapping& m, const VarSet& vars,
                      const Document& doc) {
  std::string out = "{\"doc\":" + std::to_string(doc_index);
  for (VarId x : vars) {
    out += ',';
    AppendJsonString(&out, Variable::Name(x));
    out += ':';
    std::optional<Span> s = m.Get(x);
    if (!s.has_value()) {
      out += "null";
      continue;
    }
    out += "{\"span\":[" + std::to_string(s->begin) + "," +
           std::to_string(s->end) + "],\"text\":";
    AppendJsonString(&out, doc.content(*s));
    out += '}';
  }
  out += "}";
  return out;
}

std::string FleetTsvHeader(const std::vector<const VarSet*>& vars_per_plan) {
  std::string out;
  for (size_t p = 0; p < vars_per_plan.size(); ++p) {
    out += "# q" + std::to_string(p) + ": query\t" +
           TsvHeader(*vars_per_plan[p]);
    out += '\n';
  }
  return out;
}

void AppendMappingRow(std::string* out, OutputFormat format,
                      size_t doc_index, const Mapping& m, const VarSet& vars,
                      const Document& doc) {
  *out += format == OutputFormat::kTsv ? ToTsvRow(doc_index, m, vars, doc)
                                       : ToJsonRow(doc_index, m, vars, doc);
  *out += '\n';
}

void AppendFleetMappingRow(std::string* out, OutputFormat format,
                           size_t plan_index, size_t doc_index,
                           const Mapping& m, const VarSet& vars,
                           const Document& doc) {
  if (format == OutputFormat::kTsv) {
    *out += std::to_string(plan_index);
    *out += '\t';
    *out += ToTsvRow(doc_index, m, vars, doc);
  } else {
    // {"doc":…} → {"query":p,"doc":…}
    std::string row = ToJsonRow(doc_index, m, vars, doc);
    *out += "{\"query\":" + std::to_string(plan_index) + ",";
    out->append(row, 1, row.size() - 1);
  }
  *out += '\n';
}

std::string FleetOutputHeader(const MultiQueryExtractor& fleet) {
  if (fleet.num_plans() == 1) return TsvHeader(fleet.plan(0).vars()) + '\n';
  std::vector<const VarSet*> vars_per_plan;
  vars_per_plan.reserve(fleet.num_plans());
  for (size_t p = 0; p < fleet.num_plans(); ++p)
    vars_per_plan.push_back(&fleet.plan(p).vars());
  return FleetTsvHeader(vars_per_plan);
}

bool CheckedWriter::Write(std::string_view s) {
  if (error_ != 0) return false;
  if (s.empty()) return true;
  if (std::fwrite(s.data(), 1, s.size(), stream_) != s.size()) {
    error_ = errno != 0 ? errno : EIO;
    return false;
  }
  return true;
}

bool CheckedWriter::Flush() {
  if (error_ != 0) return false;
  if (std::fflush(stream_) != 0) {
    error_ = errno != 0 ? errno : EIO;
    return false;
  }
  return true;
}

std::string CheckedWriter::ErrorMessage() const {
  if (error_ == 0) return "";
  return std::string("write error: ") + std::strerror(error_);
}

}  // namespace engine
}  // namespace spanners
