#include "bench_util.hpp"

#include <cstdio>

namespace cg::bench {

bool maybe_write_csv(const std::string& path, const Table& table) {
  if (path.empty()) return false;
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", path.c_str());
    return false;
  }
  const std::string csv = table.csv();
  std::fwrite(csv.data(), 1, csv.size(), f);
  std::fclose(f);
  std::printf("# csv written to %s\n", path.c_str());
  return true;
}

}  // namespace cg::bench
