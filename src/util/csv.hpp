// Minimal CSV writer/reader used by benches and examples to dump and
// reload figure data, plus the strict numeric field parsing both the reader
// and the CLI flag parser share.
#pragma once

#include <fstream>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace charlie::util {

/// Strict whole-field parse of a double: leading/trailing whitespace is
/// tolerated, but the entire remaining field must be consumed -- trailing
/// garbage after a valid number ("1.5abc", "3e", "1.2.3") is rejected with
/// ConfigError, as are empty fields, overflow, and the non-finite literals
/// ("nan", "inf"). `context` names the field in the error message.
double parse_double_field(const std::string& text, const std::string& context);

/// Strict whole-field parse of a base-10 integer (same rules).
long parse_long_field(const std::string& text, const std::string& context);

/// Non-throwing forms of the two parses above, for callers that build the
/// error context only on failure: the same value where parse_*_field
/// returns, nullopt where it throws.
std::optional<double> try_parse_double_field(std::string_view text);
std::optional<long> try_parse_long_field(std::string_view text);

/// Writes rows of doubles with a header line. Files land wherever the caller
/// points them (benches use ./bench_out). Throws ConfigError if the file
/// cannot be opened.
class CsvWriter {
 public:
  CsvWriter(const std::string& path, std::vector<std::string> columns);
  ~CsvWriter();

  CsvWriter(const CsvWriter&) = delete;
  CsvWriter& operator=(const CsvWriter&) = delete;

  /// Append one row; size must match the header.
  void row(const std::vector<double>& values);

  /// Append one row of preformatted strings; size must match the header.
  void row_text(const std::vector<std::string>& values);

  const std::string& path() const { return path_; }

 private:
  std::string path_;
  std::size_t n_columns_;
  std::ofstream out_;
};

/// A numeric CSV file read back into memory: the header row plus one
/// vector of doubles per data row.
struct CsvData {
  std::vector<std::string> columns;
  std::vector<std::vector<double>> rows;
};

/// Read a CSV written by CsvWriter (header + numeric rows). Every field is
/// parsed strictly (parse_double_field); malformed fields, ragged rows, and
/// a missing header throw ConfigError with the offending line number.
CsvData read_numeric_csv(const std::string& path);

/// Ensure a directory exists (mkdir -p semantics). Returns the path.
std::string ensure_directory(const std::string& path);

/// Read a whole text file into a string. Throws ConfigError if the file
/// cannot be opened or read.
std::string read_text_file(const std::string& path);

}  // namespace charlie::util
