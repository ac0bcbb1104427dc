#include "util/text_record.h"

namespace nowsched::util {

void append_value(std::string& out, double v) {
  char buf[32];  // "%.17g" of a double is at most 24 characters
  out.append(buf,
             std::to_chars(buf, buf + sizeof(buf), v, std::chars_format::general, 17).ptr);
}

RecordReader::RecordReader(const char* format, std::string_view text,
                           std::string_view header)
    : format_(format), rest_(text) {
  if (!take_line() || line_ != header) {
    fail_record("missing '" + std::string(header) + "' header");
  }
}

bool RecordReader::take_line() {
  if (rest_.empty()) return false;
  const std::size_t nl = rest_.find('\n');
  line_ = rest_.substr(0, nl);
  rest_.remove_prefix(nl == std::string_view::npos ? rest_.size() : nl + 1);
  ++line_no_;
  return true;
}

bool RecordReader::next() {
  while (take_line()) {
    if (line_.empty() || line_[0] == '#') continue;  // annotations allowed
    const std::size_t eq = line_.find('=');
    if (eq == std::string_view::npos) fail("expected key=value");
    key_ = line_.substr(0, eq);
    value_.assign(line_.substr(eq + 1));
    return true;
  }
  return false;
}

const std::string& RecordReader::expect_value(const char* key) {
  if (!take_line()) {
    fail_record(std::string("truncated record (expected '") + key + "=')");
  }
  key_ = line_.substr(0, line_.find('='));
  if (key_.size() == line_.size() || key_ != key) {
    fail(std::string("expected '") + key + "='");
  }
  value_.assign(line_.substr(key_.size() + 1));
  return value_;
}

std::size_t RecordReader::expect_count(const char* key, std::size_t min_item_bytes) {
  const auto count = expect<std::uint64_t>(key);
  if (count > rest_.size() / min_item_bytes) {
    fail("count is impossible for the " + std::to_string(rest_.size()) +
         " bytes that follow");
  }
  return static_cast<std::size_t>(count);
}

void RecordReader::expect_blank() {
  if (!take_line()) fail_record("truncated record (expected a blank line)");
  if (!line_.empty()) fail("expected a blank separator line");
}

std::string_view RecordReader::block() {
  const char* begin = rest_.data();
  const char* end = begin;
  // rest_ starts just past each taken line's newline (or at the text's end).
  while (take_line() && !line_.empty()) end = rest_.data();
  return {begin, static_cast<std::size_t>(end - begin)};
}

void RecordReader::expect_eof() {
  if (take_line()) fail("trailing data after record");
}

void RecordReader::fail(std::string_view what) const {
  throw std::invalid_argument(std::string(format_) + ": " + std::string(what) +
                              " in line " + std::to_string(line_no_) + ": '" +
                              std::string(line_) + "'");
}

void RecordReader::fail_record(std::string_view what) const {
  throw std::invalid_argument(std::string(format_) + ": " + std::string(what));
}

}  // namespace nowsched::util
