#include "digest.hpp"

#include <cstdio>

namespace perfbench {

void Digest::add(std::string_view bytes) {
  for (const char c : bytes) {
    h_ ^= static_cast<unsigned char>(c);
    h_ *= 0x100000001b3ull;
  }
}

void Digest::add(std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h_ ^= (v >> (8 * i)) & 0xffu;
    h_ *= 0x100000001b3ull;
  }
}

std::string Digest::hex() const {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h_));
  return buf;
}

}  // namespace perfbench
