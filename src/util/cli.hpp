// Minimal command-line flag parser for the tools.
//
// Supports --flag value, --flag=value and boolean --flag. Unknown flags
// are an error (fail fast beats silent typos in batch jobs). Every
// occurrence of a repeated flag is kept, in order: get() answers with the
// last one (the usual override-wins convention), get_all() with the whole
// list — which is how the apsp tool's repeatable --query builds its batch.
#pragma once

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <functional>
#include <map>
#include <string>
#include <vector>

namespace parfw {

class CliArgs {
 public:
  /// Parse argv. `allowed` lists every legal flag name (without --).
  CliArgs(int argc, const char* const* argv,
          const std::vector<std::string>& allowed);

  bool has(const std::string& flag) const { return values_.count(flag) > 0; }
  /// Last occurrence wins (override convention).
  std::string get(const std::string& flag, const std::string& fallback) const;
  std::int64_t get_int(const std::string& flag, std::int64_t fallback) const;
  double get_double(const std::string& flag, double fallback) const;
  bool get_bool(const std::string& flag) const { return has(flag); }
  /// Every occurrence of a repeatable flag, in command-line order; empty
  /// when the flag was not given.
  std::vector<std::string> get_all(const std::string& flag) const;

  /// Positional (non-flag) arguments in order.
  const std::vector<std::string>& positional() const { return positional_; }

 private:
  std::map<std::string, std::vector<std::string>> values_;
  std::vector<std::string> positional_;
};

/// Write one output file of a tool: open `path`, let `write` fill the
/// stream, then flush and check it. On failure prints "cannot open '<path>'"
/// or "write failed on '<path>'" to stderr and returns false — a full disk
/// or closed pipe is an error, never a silently truncated document.
inline bool write_output_file(
    const std::string& path, const std::function<void(std::ostream&)>& write) {
  std::ofstream os(path);
  if (!os) {
    std::fprintf(stderr, "cannot open '%s'\n", path.c_str());
    return false;
  }
  write(os);
  os.flush();
  if (!os) {
    std::fprintf(stderr, "write failed on '%s'\n", path.c_str());
    return false;
  }
  return true;
}

}  // namespace parfw
