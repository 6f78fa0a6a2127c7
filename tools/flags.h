// Command-line flag map shared by efd and eftool.
//
// Every lookup marks its key as read, so once a command has applied its
// flags it can reject the ones it never looked at — a typo such as
// --incremnetal, or a flag the command does not have — instead of
// silently running without them.
#pragma once

#include <cstdio>
#include <cstring>
#include <map>
#include <set>
#include <string>

namespace ef::tools {

class FlagMap {
 public:
  /// Stores the flag at argv[i] ("--key=value", "--key value", or a bare
  /// "--key", which reads as "1") and returns the index of the last
  /// argument it consumed. argv[i] must start with "--".
  int parse(int argc, char** argv, int i) {
    const std::string key = argv[i] + 2;
    // --key=value form: the value may be anything, including empty
    // (which strict numeric validation then rejects loudly).
    if (const auto eq = key.find('='); eq != std::string::npos) {
      values_[key.substr(0, eq)] = key.substr(eq + 1);
    } else if (i + 1 < argc && std::strncmp(argv[i + 1], "--", 2) != 0) {
      values_[key] = argv[++i];
    } else {
      values_[key] = "1";  // boolean flag
    }
    return i;
  }

  /// The flag's value, or nullptr when it was not given.
  const std::string* find(const std::string& key) const {
    read_.insert(key);
    const auto it = values_.find(key);
    return it == values_.end() ? nullptr : &it->second;
  }
  bool has(const std::string& key) const { return find(key) != nullptr; }
  std::string get(const std::string& key, const std::string& fallback) const {
    const std::string* value = find(key);
    return value == nullptr ? fallback : *value;
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
  std::map<std::string, std::string> values_;
  mutable std::set<std::string> read_;
};

}  // namespace ef::tools
