#include "data/csv.h"

#include <charconv>
#include <cmath>
#include <fstream>
#include <sstream>

#include "common/string_util.h"

namespace bigdansing {

namespace {

/// Reads the record at `*pos` of `text` into `fields`, honoring
/// double-quote quoting with "" escapes: a quoted field runs across line
/// breaks and keeps them. Moves `*pos` past the record's "\n" or "\r\n"
/// (or past the end) and counts the line breaks it reads into `*lines`.
/// Returns false when a quote is still open at the end of the input.
bool ReadCsvRecord(const std::string& text, char delim, size_t* pos,
                   std::vector<std::string>* fields, size_t* lines) {
  fields->clear();
  std::string current;
  bool in_quotes = false;
  size_t i = *pos;
  for (; i < text.size(); ++i) {
    const char c = text[i];
    if (in_quotes) {
      if (c == '"' && i + 1 < text.size() && text[i + 1] == '"') {
        current.push_back('"');
        ++i;
      } else if (c == '"') {
        in_quotes = false;
      } else {
        *lines += c == '\n';
        current.push_back(c);
      }
    } else if (c == '\n') {
      ++*lines;
      break;
    } else if (c == '\r' && (i + 1 == text.size() || text[i + 1] == '\n')) {
      // The line break's '\r'.
    } else if (c == '"' && current.empty()) {
      in_quotes = true;
    } else if (c == delim) {
      fields->push_back(std::move(current));
      current.clear();
    } else {
      current.push_back(c);
    }
  }
  if (in_quotes) return false;
  fields->push_back(std::move(current));
  *pos = i + 1;
  return true;
}

/// `v` as a field: a finite double in the shortest form that reads back as
/// the same double (Value::ToString's %g keeps six digits), plus ".0" when
/// that form is all digits, which would read back as an int or, past
/// int64, as a string; any other value as Value::ToString.
std::string FieldText(const Value& v) {
  if (!v.is_double() || !std::isfinite(v.as_double())) return v.ToString();
  char buf[32];
  std::string text(buf,
                   std::to_chars(buf, buf + sizeof(buf), v.as_double()).ptr);
  return LooksLikeInt(text) ? text + ".0" : text;
}

bool NeedsQuoting(const std::string& field, char delim) {
  for (char c : field) {
    if (c == delim || c == '"' || c == '\n' || c == '\r') return true;
  }
  return false;
}

std::string QuoteField(const std::string& field) {
  std::string out = "\"";
  for (char c : field) {
    if (c == '"') out += "\"\"";
    else out.push_back(c);
  }
  out += "\"";
  return out;
}

}  // namespace

Result<Table> ReadCsvString(const std::string& text,
                            const CsvOptions& options) {
  std::vector<std::string> fields;
  bool first = true;
  Schema schema;
  Table table;
  size_t width = 0;
  size_t lines = 0;  // line breaks read so far
  for (size_t pos = 0; pos < text.size();) {
    // A stray '\r' after the last line break is no record.
    if (text.compare(pos, std::string::npos, "\r") == 0) break;
    const size_t line_no = lines + 1;  // the record's first line
    if (!ReadCsvRecord(text, options.delimiter, &pos, &fields, &lines)) {
      return Status::ParseError("unterminated quote at line " +
                                std::to_string(line_no));
    }
    if (first) {
      first = false;
      if (options.has_header) {
        schema = Schema(fields);
        width = fields.size();
        table = Table(schema);
        continue;
      }
      std::vector<std::string> names;
      names.reserve(fields.size());
      for (size_t i = 0; i < fields.size(); ++i) {
        names.push_back("c" + std::to_string(i));
      }
      schema = Schema(std::move(names));
      width = fields.size();
      table = Table(schema);
    }
    if (fields.size() != width) {
      return Status::ParseError("line " + std::to_string(line_no) + " has " +
                                std::to_string(fields.size()) +
                                " fields, expected " + std::to_string(width));
    }
    std::vector<Value> values;
    values.reserve(fields.size());
    for (auto& f : fields) {
      values.push_back(options.infer_types
                           ? Value::Parse(f)
                           : (f.empty() ? Value::Null() : Value(f)));
    }
    table.AppendRow(std::move(values));
  }
  return table;
}

Result<Table> ReadCsvFile(const std::string& path, const CsvOptions& options) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IoError("cannot open " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return ReadCsvString(buffer.str(), options);
}

std::string WriteCsvString(const Table& table, const CsvOptions& options) {
  std::string out;
  const Schema& schema = table.schema();
  if (options.has_header) {
    for (size_t i = 0; i < schema.num_attributes(); ++i) {
      if (i > 0) out.push_back(options.delimiter);
      out += schema.attribute(i);
    }
    out.push_back('\n');
  }
  for (const Row& row : table.rows()) {
    for (size_t i = 0; i < row.size(); ++i) {
      if (i > 0) out.push_back(options.delimiter);
      std::string field = FieldText(row.value(i));
      out += NeedsQuoting(field, options.delimiter) ? QuoteField(field) : field;
    }
    out.push_back('\n');
  }
  return out;
}

Status WriteCsvFile(const Table& table, const std::string& path,
                    const CsvOptions& options) {
  std::ofstream out(path, std::ios::binary);
  if (!out) return Status::IoError("cannot open " + path + " for writing");
  out << WriteCsvString(table, options);
  if (!out) return Status::IoError("write failed for " + path);
  return Status::OK();
}

}  // namespace bigdansing
