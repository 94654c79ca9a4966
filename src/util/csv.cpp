#include "util/csv.hpp"

#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <sstream>

#include "util/error.hpp"
#include "util/fault_injection.hpp"
#include "util/text.hpp"

namespace charlie::util {

namespace {

[[noreturn]] void malformed(const std::string& context,
                            const std::string& text, const char* why) {
  throw ConfigError(context + ": " + why + ": \"" + text + "\"");
}

// Error reasons of one numeric field type.
struct FieldReasons {
  const char* empty;
  const char* malformed;
  const char* range;
};
constexpr FieldReasons kNumberReasons{"empty numeric field", "malformed number",
                                      "number out of range"};
constexpr FieldReasons kIntegerReasons{
    "empty integer field", "malformed integer", "integer out of range"};

// Strict whole-field parse by `parse` (strtod/strtol); returns nullptr on
// success, else the reason it failed. strtod/strtol need a NUL-terminated
// string but fields may be views into larger buffers: the trimmed field
// is copied to the stack (or, past 63 characters, to the heap) first.
template <typename Parse>
const char* scan_field(std::string_view text, const FieldReasons& reasons,
                       Parse&& parse) {
  const std::string_view field = trim_ascii(text);
  if (field.empty()) return reasons.empty;
  char small[64];
  std::string large;
  const char* begin = small;
  if (field.size() < sizeof(small)) {
    field.copy(small, field.size());
    small[field.size()] = '\0';
  } else {
    large.assign(field);
    begin = large.c_str();
  }
  errno = 0;
  char* end = nullptr;
  parse(begin, &end);
  // strtod/strtol happily stop at the first non-numeric character; a
  // partial parse means trailing garbage ("1.5abc") or malformed text
  // ("1.2.3").
  if (end != begin + field.size()) return reasons.malformed;
  if (errno == ERANGE) return reasons.range;
  return nullptr;
}

const char* scan_double(std::string_view text, double& value) {
  const char* why = scan_field(text, kNumberReasons,
                               [&](const char* s, char** end) {
                                 value = std::strtod(s, end);
                               });
  // strtod also consumes the literal tokens "nan"/"inf"/"infinity", which
  // are not numbers in any data this library writes or reads.
  if (why == nullptr && !std::isfinite(value)) why = "non-finite number";
  return why;
}

const char* scan_long(std::string_view text, long& value) {
  return scan_field(text, kIntegerReasons, [&](const char* s, char** end) {
    value = std::strtol(s, end, 10);
  });
}

}  // namespace

double parse_double_field(const std::string& text,
                          const std::string& context) {
  double value = 0.0;
  if (const char* why = scan_double(text, value)) malformed(context, text, why);
  return value;
}

long parse_long_field(const std::string& text, const std::string& context) {
  long value = 0;
  if (const char* why = scan_long(text, value)) malformed(context, text, why);
  return value;
}

std::optional<double> try_parse_double_field(std::string_view text) {
  double value = 0.0;
  if (scan_double(text, value) != nullptr) return std::nullopt;
  return value;
}

std::optional<long> try_parse_long_field(std::string_view text) {
  long value = 0;
  if (scan_long(text, value) != nullptr) return std::nullopt;
  return value;
}

CsvWriter::CsvWriter(const std::string& path, std::vector<std::string> columns)
    : path_(path), n_columns_(columns.size()) {
  CHARLIE_ASSERT_MSG(!columns.empty(), "CSV needs at least one column");
  const auto parent = std::filesystem::path(path).parent_path();
  if (!parent.empty()) {
    std::filesystem::create_directories(parent);
  }
  out_.open(path);
  if (!out_) {
    throw ConfigError("cannot open CSV output file: " + path);
  }
  for (std::size_t i = 0; i < columns.size(); ++i) {
    out_ << (i ? "," : "") << columns[i];
  }
  out_ << '\n';
}

CsvWriter::~CsvWriter() = default;

void CsvWriter::row(const std::vector<double>& values) {
  CHARLIE_ASSERT_MSG(values.size() == n_columns_, "CSV row width mismatch");
  std::ostringstream os;
  os.precision(12);
  for (std::size_t i = 0; i < values.size(); ++i) {
    os << (i ? "," : "") << values[i];
  }
  out_ << os.str() << '\n';
}

void CsvWriter::row_text(const std::vector<std::string>& values) {
  CHARLIE_ASSERT_MSG(values.size() == n_columns_, "CSV row width mismatch");
  for (std::size_t i = 0; i < values.size(); ++i) {
    out_ << (i ? "," : "") << values[i];
  }
  out_ << '\n';
}

CsvData read_numeric_csv(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    throw ConfigError("cannot open CSV input file: " + path);
  }
  auto split = [](const std::string& line) {
    std::vector<std::string> fields;
    std::size_t start = 0;
    while (true) {
      const std::size_t comma = line.find(',', start);
      if (comma == std::string::npos) {
        fields.push_back(line.substr(start));
        return fields;
      }
      fields.push_back(line.substr(start, comma - start));
      start = comma + 1;
    }
  };

  CsvData data;
  std::string line;
  if (!std::getline(in, line)) {
    throw ConfigError(path + ": missing CSV header");
  }
  for (const std::string& name : split(line)) {
    data.columns.emplace_back(trim_ascii(name));
  }
  long line_no = 1;
  while (std::getline(in, line)) {
    ++line_no;
    if (trim_ascii(line).empty()) continue;
    const auto fields = split(line);
    if (fields.size() != data.columns.size()) {
      throw ConfigError(path + ":" + std::to_string(line_no) +
                        ": expected " + std::to_string(data.columns.size()) +
                        " fields, got " + std::to_string(fields.size()));
    }
    std::vector<double> row;
    row.reserve(fields.size());
    for (const std::string& field : fields) {
      row.push_back(
          parse_double_field(field, path + ":" + std::to_string(line_no)));
    }
    data.rows.push_back(std::move(row));
  }
  return data;
}

std::string ensure_directory(const std::string& path) {
  std::filesystem::create_directories(path);
  return path;
}

std::string read_text_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw ConfigError("read_text_file: cannot open " + path);
  std::ostringstream text;
  text << in.rdbuf();
  if (in.bad()) throw ConfigError("read_text_file: read error on " + path);
  std::string result = text.str();
  // Fault site: a truncated read models a corrupt/partial file on disk;
  // every parser downstream must fail with ConfigError, never crash.
  CHARLIE_FAULT_TEXT("io.read_text_file", result);
  return result;
}

}  // namespace charlie::util
