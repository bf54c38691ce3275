// Test helper: a result's hit list as the dense per-document vectors the
// byte-identity tests compare, entry i being per_doc[i].
#ifndef SPANNERS_TESTS_DENSE_RESULT_H_
#define SPANNERS_TESTS_DENSE_RESULT_H_

#include <cstddef>
#include <vector>

#include "core/mapping.h"
#include "engine/batch_extractor.h"

namespace spanners {
namespace engine {

inline std::vector<std::vector<Mapping>> Dense(const HitList& per_doc) {
  std::vector<std::vector<Mapping>> dense;
  dense.reserve(per_doc.size());
  for (size_t i = 0; i < per_doc.size(); ++i) dense.push_back(per_doc[i]);
  return dense;
}

}  // namespace engine
}  // namespace spanners

#endif  // SPANNERS_TESTS_DENSE_RESULT_H_
