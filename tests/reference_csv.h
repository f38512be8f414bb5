// ReferenceReadCountsCsv: the line-by-line CSV reader that
// src/io/csv.cc replaced with a one-buffer string_view walk and a
// std::from_chars fast path. Preserved (std::getline, util::Split into
// strings, util::ParseDouble per field) as the ground truth for
// csv_differential_test and CsvFuzzTest: the new reader must return the
// same values bit for bit, or the same error text, line number included.
//
// Columns must be non-negative here; the new reader's InvalidArgument for a
// negative column has no counterpart in this code.

#ifndef CONSERVATION_TESTS_REFERENCE_CSV_H_
#define CONSERVATION_TESTS_REFERENCE_CSV_H_

#include <algorithm>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "io/csv.h"
#include "series/sequence.h"
#include "util/check.h"
#include "util/status.h"
#include "util/string_util.h"

namespace conservation::io {

inline util::Result<series::CountSequence> ReferenceReadCountsCsv(
    const std::string& path, const CsvReadOptions& options = {}) {
  CR_CHECK(options.column_a >= 0 && options.column_b >= 0);
  std::ifstream in(path);
  if (!in) {
    return util::Status::NotFound("cannot open " + path);
  }
  const int needed_columns =
      std::max(options.column_a, options.column_b) + 1;

  std::vector<double> a;
  std::vector<double> b;
  std::string line;
  size_t line_number = 0;
  bool header_pending = options.has_header;
  while (std::getline(in, line)) {
    ++line_number;
    if (header_pending) {
      header_pending = false;
      continue;
    }
    if (util::StripWhitespace(line).empty()) continue;
    const std::vector<std::string> fields =
        util::Split(line, options.separator);
    double value_a = 0.0;
    double value_b = 0.0;
    const bool parsed =
        static_cast<int>(fields.size()) >= needed_columns &&
        util::ParseDouble(fields[static_cast<size_t>(options.column_a)],
                          &value_a) &&
        util::ParseDouble(fields[static_cast<size_t>(options.column_b)],
                          &value_b);
    if (!parsed) {
      if (options.skip_malformed_rows) continue;
      return util::Status::InvalidArgument(util::StrFormat(
          "%s:%zu: malformed row", path.c_str(), line_number));
    }
    a.push_back(value_a);
    b.push_back(value_b);
  }
  return series::CountSequence::Create(std::move(a), std::move(b));
}

// Empty when two reads are identical: both fail with the same status text,
// or both succeed with bitwise-equal columns. Otherwise says what differs.
inline std::string CsvReadMismatch(
    const util::Result<series::CountSequence>& fast,
    const util::Result<series::CountSequence>& reference) {
  if (fast.ok() != reference.ok() ||
      (!fast.ok() &&
       fast.status().ToString() != reference.status().ToString())) {
    return "status: " +
           (fast.ok() ? std::string("ok") : fast.status().ToString()) +
           " vs reference " +
           (reference.ok() ? std::string("ok")
                           : reference.status().ToString());
  }
  if (!fast.ok()) return "";
  auto same_bits = [](const std::vector<double>& x,
                      const std::vector<double>& y) {
    return x.size() == y.size() &&
           (x.empty() ||
            std::memcmp(x.data(), y.data(), x.size() * sizeof(double)) == 0);
  };
  if (!same_bits(fast->outbound(), reference->outbound())) {
    return "outbound column differs";
  }
  if (!same_bits(fast->inbound(), reference->inbound())) {
    return "inbound column differs";
  }
  return "";
}

}  // namespace conservation::io

#endif  // CONSERVATION_TESTS_REFERENCE_CSV_H_
