// Minimal command-line flag parsing for benches and examples.
//
// Supports "--name=value" and boolean "--name"; everything else is
// positional.  ("--name value" is intentionally unsupported: it is
// ambiguous with a boolean flag followed by a positional argument.)
// Bad input never falls back to a default: a malformed value, a value
// below get_int_at_least's minimum and (check_all_read) a flag nobody read
// print "<program>: --name=value: <why>" and exit 2.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

namespace cg {

class Flags {
 public:
  Flags(int argc, char** argv);

  /// Whether --name was given; counts as reading it (check_all_read).
  bool has(const std::string& name) const;

  std::string get_string(const std::string& name, std::string def) const;
  std::int64_t get_int(const std::string& name, std::int64_t def) const;
  /// get_int that also exits 2 when the value is below `min`.
  std::int64_t get_int_at_least(const std::string& name, std::int64_t def,
                                std::int64_t min) const;
  double get_double(const std::string& name, double def) const;
  /// Accepts true/false, 1/0, yes/no and on/off; a bare --name is true.
  bool get_bool(const std::string& name, bool def) const;

  /// Exit 2 if a given flag was never read (a typo such as --trails=2 must
  /// not silently run the default).  Call once every flag is read.
  void check_all_read() const;

  [[noreturn]] void fail(const std::string& name, const std::string& why) const;

  /// Positional (non --flag) arguments in order.
  const std::vector<std::string>& positional() const { return positional_; }

  /// Program name (argv[0]).
  const std::string& program() const { return program_; }

 private:
  const std::string* find(const std::string& name) const;

  std::string program_;
  std::map<std::string, std::string> kv_;
  std::vector<std::string> positional_;
  mutable std::set<std::string> read_;  // keys some getter asked for
};

}  // namespace cg
