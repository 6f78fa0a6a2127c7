// Command-line flag map shared by efd and eftool.
//
// Every lookup marks its key as read, so once a command has applied its
// flags it can reject the ones it never looked at — a typo such as
// --incremnetal, or a flag the command does not have — instead of
// silently running without them.
#pragma once

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <map>
#include <set>
#include <string>
#include <utility>

namespace ef::tools {

class FlagMap {
 public:
  /// `prog` prefixes every bad-value report ("efd", "eftool").
  explicit FlagMap(std::string prog) : prog_(std::move(prog)) {}

  /// Stores the flag at argv[i] ("--key=value", "--key value", or a bare
  /// "--key", which reads as "1" and is remembered as bare) and returns
  /// the index of the last argument it consumed. argv[i] must start with
  /// "--".
  int parse(int argc, char** argv, int i) {
    std::string key = argv[i] + 2;
    std::string value = "1";  // boolean flag
    // --key=value form: the value may be anything, including empty
    // (which strict numeric validation then rejects loudly).
    if (const auto eq = key.find('='); eq != std::string::npos) {
      value = key.substr(eq + 1);
      key.resize(eq);
      bare_.erase(key);
    } else if (i + 1 < argc && std::strncmp(argv[i + 1], "--", 2) != 0) {
      value = argv[++i];
      bare_.erase(key);
    } else {
      bare_.insert(key);
    }
    values_[key] = value;
    return i;
  }

  /// The flag's value, or nullptr when it was not given.
  const std::string* find(const std::string& key) const {
    read_.insert(key);
    const auto it = values_.find(key);
    return it == values_.end() ? nullptr : &it->second;
  }
  bool has(const std::string& key) const { return find(key) != nullptr; }
  /// Boolean flag: true when given bare ("--key"), false when absent.
  /// A value ("--key=0", "--key 0") exits 2 rather than reading as on.
  bool flag(const std::string& key) const {
    const std::string* value = find(key);
    if (value == nullptr) return false;
    if (!bare_.contains(key)) {
      std::fprintf(stderr, "%s: --%s takes no value (got '%s')\n",
                   prog_.c_str(), key.c_str(), value->c_str());
      std::exit(2);
    }
    return true;
  }
  std::string get(const std::string& key, const std::string& fallback) const {
    const std::string* value = find(key);
    return value == nullptr ? fallback : *value;
  }

  /// Strict integer: junk or trailing characters exit 2.
  long num(const std::string& key, long fallback) const {
    const std::string* raw = find(key);
    if (raw == nullptr) return fallback;
    try {
      std::size_t consumed = 0;
      const long value = std::stol(*raw, &consumed);
      if (consumed == raw->size()) return value;
    } catch (const std::exception&) {
    }
    bad_value(key);
  }
  /// Strict finite double: junk, trailing characters, inf or nan exit 2.
  double real(const std::string& key, double fallback) const {
    const std::string* raw = find(key);
    if (raw == nullptr) return fallback;
    char* end = nullptr;
    const double value = std::strtod(raw->c_str(), &end);
    if (end == raw->c_str() || *end != '\0' || !std::isfinite(value)) {
      bad_value(key);
    }
    return value;
  }
  /// Reports the flag's value as invalid and exits 2.
  [[noreturn]] void bad_value(const std::string& key) const {
    std::fprintf(stderr, "%s: invalid numeric value '%s' for --%s\n",
                 prog_.c_str(), get(key, "").c_str(), key.c_str());
    std::exit(2);
  }

  /// Prints one line per given flag that no lookup has read yet, each
  /// prefixed with `prog`, and returns false if there was any.
  bool all_read(const char* prog) const {
    bool ok = true;
    for (const auto& [key, value] : values_) {
      if (read_.contains(key)) continue;
      std::fprintf(stderr, "%s: unknown flag --%s\n", prog, key.c_str());
      ok = false;
    }
    return ok;
  }

 private:
  std::string prog_;
  std::map<std::string, std::string> values_;
  std::set<std::string> bare_;
  mutable std::set<std::string> read_;
};

}  // namespace ef::tools
