#include "io/csv.h"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string_view>
#include <system_error>

#include "util/string_util.h"

namespace conservation::io {

namespace {

// Parses one field exactly as util::ParseDouble does, which is the
// accept/reject contract. The fast path is std::from_chars, correctly
// rounded like strtod. It does not skip leading whitespace, so when it
// stops at a whitespace-only remainder, what it consumed is the field
// ParseDouble would strip down to; if that is at most 63 characters and
// the value is zero or normal, strtod returns the same bits without error.
// Everything else — signs, hex, inf/nan, subnormals, range errors, long
// fields, garbage — goes to ParseDouble.
bool ParseField(std::string_view field, double* out) {
  const char* last = field.data() + field.size();
  double value = 0.0;
  const auto [ptr, error] = std::from_chars(field.data(), last, value);
  if (error == std::errc() && ptr - field.data() <= 63 &&
      (ptr == last ||
       util::StripWhitespace(std::string_view(ptr, last - ptr)).empty()) &&
      (value == 0.0 || std::isnormal(value))) {
    *out = value;
    return true;
  }
  return util::ParseDouble(field, out);
}

// util::StripWhitespace(line).empty(), without the call for the usual line
// that starts with a non-space.
bool IsBlank(std::string_view line) {
  return (line.empty() || std::isspace(static_cast<unsigned char>(line[0]))) &&
         util::StripWhitespace(line).empty();
}

// The whole file as one string. Sized from the file system when it can
// be; whatever that size misses (a pipe, a file that grew) is read in
// chunks. Only istream::read touches the file: it turns a read error (a
// directory, say) into a failed stream, as std::getline does, where a
// streambuf iterator would throw.
std::string ReadWholeFile(std::ifstream& in, const std::string& path) {
  std::error_code size_error;
  const std::uintmax_t size = std::filesystem::file_size(path, size_error);
  std::string text(size_error ? 0 : static_cast<size_t>(size), '\0');
  in.read(text.data(), static_cast<std::streamsize>(text.size()));
  text.resize(static_cast<size_t>(in.gcount()));
  char chunk[1 << 16];
  while (in.read(chunk, sizeof(chunk)) || in.gcount() > 0) {
    text.append(chunk, static_cast<size_t>(in.gcount()));
  }
  return text;
}

}  // namespace

util::Result<series::CountSequence> ReadCountsCsv(
    const std::string& path, const CsvReadOptions& options) {
  if (options.column_a < 0 || options.column_b < 0) {
    return util::Status::InvalidArgument(util::StrFormat(
        "CSV columns must be >= 0, got column_a=%d column_b=%d",
        options.column_a, options.column_b));
  }
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return util::Status::NotFound("cannot open " + path);
  }
  const std::string text = ReadWholeFile(in, path);
  const size_t column_a = static_cast<size_t>(options.column_a);
  const size_t column_b = static_cast<size_t>(options.column_b);
  const size_t last_column = std::max(column_a, column_b);

  // Lines end at '\n' (a final line may lack one), as std::getline splits
  // them; a '\r' before it is whitespace to the blank-line check and to
  // the parser.
  const size_t lines = static_cast<size_t>(
      std::count(text.begin(), text.end(), '\n') + 1);
  std::vector<double> a;
  std::vector<double> b;
  a.reserve(lines);
  b.reserve(lines);
  size_t line_number = 0;
  bool header_pending = options.has_header;
  for (size_t begin = 0; begin < text.size();) {
    size_t end = text.find('\n', begin);
    if (end == std::string::npos) end = text.size();
    const std::string_view line(text.data() + begin, end - begin);
    begin = end + 1;
    ++line_number;
    if (header_pending) {
      header_pending = false;
      continue;
    }
    if (IsBlank(line)) continue;
    // Fields column_a and column_b, found without splitting the rest.
    std::string_view field_a;
    std::string_view field_b;
    size_t column = 0;
    size_t field_begin = 0;
    while (true) {
      size_t field_end = line.find(options.separator, field_begin);
      const bool last_field = field_end == std::string_view::npos;
      if (last_field) field_end = line.size();
      const std::string_view field =
          line.substr(field_begin, field_end - field_begin);
      if (column == column_a) field_a = field;
      if (column == column_b) field_b = field;
      if (column == last_column || last_field) break;
      ++column;
      field_begin = field_end + 1;
    }
    double value_a = 0.0;
    double value_b = 0.0;
    const bool parsed = column == last_column &&
                        ParseField(field_a, &value_a) &&
                        ParseField(field_b, &value_b);
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

util::Status WriteCountsCsv(const std::string& path,
                            const series::CountSequence& counts) {
  std::ofstream out(path);
  if (!out) {
    return util::Status::InvalidArgument("cannot open for write: " + path);
  }
  out << "outbound_a,inbound_b\n";
  for (int64_t t = 1; t <= counts.n(); ++t) {
    out << util::FormatNumber(counts.a(t), 9) << ','
        << util::FormatNumber(counts.b(t), 9) << '\n';
  }
  if (!out) {
    return util::Status::Internal("write failed: " + path);
  }
  return util::Status::Ok();
}

util::Status WriteColumnsCsv(
    const std::string& path,
    const std::vector<std::pair<std::string, std::vector<double>>>& columns) {
  if (columns.empty()) {
    return util::Status::InvalidArgument("no columns to write");
  }
  const size_t rows = columns.front().second.size();
  for (const auto& [name, values] : columns) {
    if (values.size() != rows) {
      return util::Status::InvalidArgument(
          "column length mismatch at " + name);
    }
  }
  std::ofstream out(path);
  if (!out) {
    return util::Status::InvalidArgument("cannot open for write: " + path);
  }
  for (size_t c = 0; c < columns.size(); ++c) {
    if (c > 0) out << ',';
    out << columns[c].first;
  }
  out << '\n';
  for (size_t r = 0; r < rows; ++r) {
    for (size_t c = 0; c < columns.size(); ++c) {
      if (c > 0) out << ',';
      out << util::FormatNumber(columns[c].second[r], 9);
    }
    out << '\n';
  }
  if (!out) {
    return util::Status::Internal("write failed: " + path);
  }
  return util::Status::Ok();
}

}  // namespace conservation::io
