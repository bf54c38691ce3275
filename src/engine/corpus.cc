#include "engine/corpus.h"

#include <fstream>
#include <iostream>
#include <iterator>
#include <sstream>
#include <string>

namespace spanners {
namespace engine {

Corpus Corpus::FromDelimited(std::string_view text, char delimiter) {
  std::vector<Document> docs;
  size_t start = 0;
  while (start <= text.size()) {
    size_t pos = text.find(delimiter, start);
    if (pos == std::string_view::npos) {
      // Last piece; skip it when it is the empty remainder of a trailing
      // delimiter (or an entirely empty input).
      if (start < text.size())
        docs.emplace_back(std::string(text.substr(start)));
      break;
    }
    docs.emplace_back(std::string(text.substr(start, pos - start)));
    start = pos + 1;
  }
  return Corpus(std::move(docs));
}

Corpus Corpus::FromStream(std::istream& in, char delimiter) {
  std::ostringstream buf;
  buf << in.rdbuf();
  std::string text = buf.str();
  return FromDelimited(text, delimiter);
}

Result<Corpus> Corpus::FromFile(const std::string& path, char delimiter) {
  std::ifstream in(path, std::ios::binary);
  if (!in)
    return Status::InvalidArgument("cannot open corpus file: " + path);
  return FromStream(in, delimiter);
}

Result<Corpus> Corpus::FromFiles(const std::vector<std::string>& paths,
                                 char delimiter) {
  Corpus corpus;
  for (const std::string& path : paths) {
    if (path == "-") {
      corpus.Append(FromStream(std::cin, delimiter));
      continue;
    }
    SPANNERS_ASSIGN_OR_RETURN(Corpus part, FromFile(path, delimiter));
    corpus.Append(std::move(part));
  }
  return corpus;
}

void Corpus::Append(Corpus&& other) {
  if (docs_.empty()) {
    docs_ = std::move(other.docs_);
    return;
  }
  docs_.insert(docs_.end(), std::make_move_iterator(other.docs_.begin()),
               std::make_move_iterator(other.docs_.end()));
  other.docs_.clear();
}

size_t Corpus::TotalBytes() const {
  size_t total = 0;
  for (const Document& d : docs_) total += d.text().size();
  return total;
}

std::vector<Shard> ShardCorpus(const Corpus& corpus,
                               const ShardingOptions& options) {
  return ShardByBytes(
      corpus.size(), [&](size_t i) { return corpus[i].text().size(); },
      options);
}

}  // namespace engine
}  // namespace spanners
