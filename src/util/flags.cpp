#include "util/flags.h"

#include <cstdio>
#include <cstdlib>

#include "util/parse.h"

namespace nowsched::util {

namespace {

[[noreturn]] void parse_error(const std::string& program, const std::string& detail) {
  std::fprintf(stderr, "%s: usage error: %s\n",
               program.empty() ? "nowsched" : program.c_str(), detail.c_str());
  std::exit(2);
}

}  // namespace

Flags::Flags(int argc, const char* const* argv) {
  if (argc > 0) program_ = argv[0];
  bool flags_ended = false;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (!flags_ended && arg == "--") {
      // Conventional end-of-flags separator: not a flag, not a positional.
      flags_ended = true;
      continue;
    }
    if (!flags_ended && arg.rfind("--", 0) == 0) {
      const auto eq = arg.find('=');
      std::string key =
          eq == std::string::npos ? arg.substr(2) : arg.substr(2, eq - 2);
      if (key.empty()) {
        parse_error(program_, "empty flag name in \"" + arg + "\"");
      }
      values_[std::move(key)] =
          eq == std::string::npos ? "true" : arg.substr(eq + 1);
    } else {
      positionals_.push_back(std::move(arg));
    }
  }
}

void Flags::usage_error(const std::string& key, const char* expected,
                        const std::string& value) const {
  parse_error(program_,
              "--" + key + " expects " + expected + ", got \"" + value + "\"");
}

bool Flags::has(const std::string& key) const { return values_.count(key) > 0; }

std::string Flags::get(const std::string& key, const std::string& fallback) const {
  const auto it = values_.find(key);
  return it == values_.end() ? fallback : it->second;
}

std::int64_t Flags::get_int(const std::string& key, std::int64_t fallback) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  const auto parsed = parse_int64(it->second);
  if (!parsed) usage_error(key, "an integer", it->second);
  return *parsed;
}

std::size_t Flags::get_count(const std::string& key, std::size_t fallback) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  const auto parsed = parse_int64(it->second);
  if (!parsed || *parsed < 0) usage_error(key, "a non-negative integer", it->second);
  return static_cast<std::size_t>(*parsed);
}

double Flags::get_double(const std::string& key, double fallback) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  const auto parsed = parse_double(it->second);
  if (!parsed) usage_error(key, "a number", it->second);
  return *parsed;
}

bool Flags::get_bool(const std::string& key, bool fallback) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  const std::string& value = it->second;
  if (value == "true" || value == "1" || value == "yes" || value == "on") return true;
  if (value == "false" || value == "0" || value == "no" || value == "off") {
    return false;
  }
  usage_error(key, "a boolean (true/false, 1/0, yes/no, on/off)", value);
}

}  // namespace nowsched::util
