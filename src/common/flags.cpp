#include "common/flags.hpp"

#include <cerrno>
#include <cstdio>
#include <cstdlib>

namespace cg {

Flags::Flags(int argc, char** argv) {
  program_ = argc > 0 ? argv[0] : "";
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(std::move(arg));
      continue;
    }
    arg.erase(0, 2);
    const auto eq = arg.find('=');
    if (eq != std::string::npos) {
      kv_[arg.substr(0, eq)] = arg.substr(eq + 1);
    } else {
      kv_[arg] = "true";  // bare boolean flag ("--k v" is ambiguous: use --k=v)
    }
  }
}

const std::string* Flags::find(const std::string& name) const {
  read_.insert(name);
  const auto it = kv_.find(name);
  return it == kv_.end() ? nullptr : &it->second;
}

bool Flags::has(const std::string& name) const { return find(name) != nullptr; }

void Flags::fail(const std::string& name, const std::string& why) const {
  const auto it = kv_.find(name);
  const std::string given = it == kv_.end() ? "" : "=" + it->second;
  std::fprintf(stderr, "%s: --%s%s: %s\n",
               program_.substr(program_.rfind('/') + 1).c_str(), name.c_str(),
               given.c_str(), why.c_str());
  std::exit(2);
}

std::string Flags::get_string(const std::string& name, std::string def) const {
  const std::string* v = find(name);
  return v == nullptr ? def : *v;
}

std::int64_t Flags::get_int(const std::string& name, std::int64_t def) const {
  const std::string* v = find(name);
  if (v == nullptr) return def;
  char* end = nullptr;
  errno = 0;
  const long long x = std::strtoll(v->c_str(), &end, 10);
  if (v->empty() || *end != '\0' || errno == ERANGE)
    fail(name, "expected an integer");
  return x;
}

std::int64_t Flags::get_int_at_least(const std::string& name,
                                     std::int64_t def,
                                     std::int64_t min) const {
  const std::int64_t x = get_int(name, def);
  if (x < min) fail(name, "must be >= " + std::to_string(min));
  return x;
}

double Flags::get_double(const std::string& name, double def) const {
  const std::string* v = find(name);
  if (v == nullptr) return def;
  char* end = nullptr;
  errno = 0;
  const double x = std::strtod(v->c_str(), &end);
  if (v->empty() || *end != '\0' || errno == ERANGE)
    fail(name, "expected a number");
  return x;
}

bool Flags::get_bool(const std::string& name, bool def) const {
  const std::string* v = find(name);
  if (v == nullptr) return def;
  if (*v == "true" || *v == "1" || *v == "yes" || *v == "on") return true;
  if (*v == "false" || *v == "0" || *v == "no" || *v == "off") return false;
  fail(name, "expected true/false, 1/0, yes/no or on/off");
}

void Flags::check_all_read() const {
  for (const auto& [name, value] : kv_)
    if (read_.count(name) == 0) fail(name, "unknown flag");
}

}  // namespace cg
