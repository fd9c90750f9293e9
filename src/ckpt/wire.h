// Tiny POD-stream helpers for the checkpoint subsystem's binary state blobs
// (freezing-policy state, controller state, optimizer shards).
// Little-endian host representation, same as the tensor serializer
// and the TCP transport frames: checkpoints are host-local artifacts, and a
// cross-architecture restore fails loudly at the magic/size checks.
#ifndef EGERIA_SRC_CKPT_WIRE_H_
#define EGERIA_SRC_CKPT_WIRE_H_

#include <cstdint>
#include <deque>
#include <istream>
#include <ostream>
#include <string>
#include <type_traits>
#include <vector>

namespace egeria {
namespace wire {

template <typename T>
void Write(std::ostream& os, const T& v) {
  static_assert(std::is_trivially_copyable<T>::value, "POD only");
  os.write(reinterpret_cast<const char*>(&v), sizeof(T));
}

template <typename T>
bool Read(std::istream& is, T& v) {
  static_assert(std::is_trivially_copyable<T>::value, "POD only");
  is.read(reinterpret_cast<char*>(&v), sizeof(T));
  return static_cast<bool>(is);
}

inline void WriteString(std::ostream& os, const std::string& s) {
  Write(os, static_cast<uint32_t>(s.size()));
  os.write(s.data(), static_cast<std::streamsize>(s.size()));
}

inline bool ReadString(std::istream& is, std::string& s, uint32_t max_len = 1U << 20) {
  uint32_t len = 0;
  if (!Read(is, len) || len > max_len) {
    return false;
  }
  s.assign(len, '\0');
  is.read(s.data(), static_cast<std::streamsize>(len));
  return static_cast<bool>(is);
}

inline void WriteDoubles(std::ostream& os, const std::deque<double>& v) {
  Write(os, static_cast<uint64_t>(v.size()));
  for (double d : v) {
    Write(os, d);
  }
}

inline bool ReadDoubles(std::istream& is, std::deque<double>& v,
                        uint64_t max_count = 1ULL << 24) {
  uint64_t n = 0;
  if (!Read(is, n) || n > max_count) {
    return false;
  }
  v.clear();
  for (uint64_t i = 0; i < n; ++i) {
    double d = 0.0;
    if (!Read(is, d)) {
      return false;
    }
    v.push_back(d);
  }
  return true;
}

inline void WriteFloats(std::ostream& os, const std::vector<float>& v) {
  Write(os, static_cast<uint64_t>(v.size()));
  if (!v.empty()) {
    os.write(reinterpret_cast<const char*>(v.data()),
             static_cast<std::streamsize>(v.size() * sizeof(float)));
  }
}

inline bool ReadFloats(std::istream& is, std::vector<float>& v,
                       uint64_t max_count = 1ULL << 34) {
  uint64_t n = 0;
  if (!Read(is, n) || n > max_count) {
    return false;
  }
  v.assign(static_cast<size_t>(n), 0.0F);
  if (n > 0) {
    is.read(reinterpret_cast<char*>(v.data()),
            static_cast<std::streamsize>(n * sizeof(float)));
  }
  return static_cast<bool>(is);
}

}  // namespace wire
}  // namespace egeria

#endif  // EGERIA_SRC_CKPT_WIRE_H_
