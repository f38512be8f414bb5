// CSV I/O for count data: load real two-column measurement files and dump
// generated series for external plotting.

#ifndef CONSERVATION_IO_CSV_H_
#define CONSERVATION_IO_CSV_H_

#include <string>
#include <vector>

#include "series/sequence.h"
#include "util/status.h"

namespace conservation::io {

struct CsvReadOptions {
  // 0-based column indices of the outbound (a) and inbound (b) counts; a
  // negative index fails the read with InvalidArgument.
  int column_a = 0;
  int column_b = 1;
  char separator = ',';
  bool has_header = true;
  // Skip rows whose relevant fields do not parse (e.g. blank trailers);
  // when false, such rows fail the read.
  bool skip_malformed_rows = false;
};

// Reads a CountSequence from a CSV file. Fields parse as util::ParseDouble
// does (tests/reference_csv.h keeps the line-by-line reader this one
// replaced, as the differential oracle); a row with too few fields or an
// unparsable count is "path:line: malformed row" unless skipped.
util::Result<series::CountSequence> ReadCountsCsv(
    const std::string& path, const CsvReadOptions& options = {});

// Writes "a,b" rows (with a header) to `path`.
util::Status WriteCountsCsv(const std::string& path,
                            const series::CountSequence& counts);

// Writes named columns of equal length to `path`; handy for dumping the
// series behind a figure.
util::Status WriteColumnsCsv(
    const std::string& path,
    const std::vector<std::pair<std::string, std::vector<double>>>& columns);

}  // namespace conservation::io

#endif  // CONSERVATION_IO_CSV_H_
