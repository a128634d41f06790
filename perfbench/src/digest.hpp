// A deterministic 64-bit FNV-1a digest of the run's observable outputs.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

namespace perfbench {

class Digest {
 public:
  void add(std::string_view bytes);
  void add(std::uint64_t v);
  std::uint64_t value() const { return h_; }
  /// 16 lowercase hex digits.
  std::string hex() const;

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

}  // namespace perfbench
